// The benchmark is a module of its own so that it builds from its own
// directory; the ftss/ path prefix is what lets it import ftss/internal.
module ftss/bench

go 1.22

require ftss v0.0.0

replace ftss => ../
