package transport

import (
	"encoding/binary"
	"syscall"
	"time"
	"unsafe"
)

// waiter is the dispatcher's sleep: ppoll on an eventfd, with the calling
// thread's timer slack at 1 ns for the sleep so the kernel wakes it within
// microseconds of the deadline instead of up to the default 50 µs after it
// (DESIGN.md "How the dispatcher waits"). Only the dispatcher sleeps and
// closes; wake is called under qMu.
type waiter struct{ fd int }

const (
	efdCloexec      = 0x80000 // EFD_CLOEXEC
	efdNonblock     = 0x800   // EFD_NONBLOCK
	prSetTimerSlack = 29      // PR_SET_TIMERSLACK
	pollIn          = 0x1     // POLLIN
)

func newWaiter() waiter {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_EVENTFD2, 0, efdCloexec|efdNonblock, 0)
	if errno != 0 {
		panic("transport: eventfd: " + errno.Error())
	}
	return waiter{fd: int(fd)}
}

// sleep blocks until wake is called or d has passed (d < 0: until wake). It
// may return early, on a signal or a wake posted during an earlier sleep;
// await re-reads the clock and the kick flag either way, which is why no
// result of the calls below is checked.
func (w waiter) sleep(d time.Duration) {
	// Timer slack is per thread and Go's threads are shared: it is set for
	// this sleep only, since left at 1 ns it makes the runtime's own short
	// sleeps precise too, which cost BenchmarkSimSend 12 %. Zero restores the
	// thread's default.
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	defer syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
	pfd := struct {
		fd              int32
		events, revents int16
	}{fd: int32(w.fd), events: pollIn}
	var ts *syscall.Timespec
	if d >= 0 {
		t := syscall.NsecToTimespec(int64(d))
		ts = &t
	}
	syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&pfd)), 1, uintptr(unsafe.Pointer(ts)), 0, 0, 0)
	if pfd.revents&pollIn != 0 {
		var buf [8]byte // reset the counter; the fd is non-blocking
		syscall.RawSyscall(syscall.SYS_READ, uintptr(w.fd), uintptr(unsafe.Pointer(&buf[0])), 8)
	}
}

// wake ends the current sleep, or the next one if none is in progress. The
// write cannot fail: at most one kick per sleep adds to a counter that each
// sleep resets.
func (w waiter) wake() {
	var one [8]byte
	binary.NativeEndian.PutUint64(one[:], 1)
	syscall.RawSyscall(syscall.SYS_WRITE, uintptr(w.fd), uintptr(unsafe.Pointer(&one[0])), 8)
}

func (w waiter) close() { syscall.Close(w.fd) }
