// The benchmark is a module of its own so that the repository's build and
// test commands never compile it; the replace line lets it import the
// phirel/internal/... layers it measures.
module phirel/benchmark

go 1.24

require phirel v0.0.0

replace phirel => ../
