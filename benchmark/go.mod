// The benchmark is its own module so that it builds and tests apart from the
// program. Its path sits under the program's module path, which is what lets
// it import sharper/internal/...; every such import is in surface.go.
module sharper/benchmark

go 1.22

require sharper v0.0.0

replace sharper => ../
