// The benchmark is a module of its own so that it builds from its own
// build file; the replace directive points at the checkout it sits in,
// and the asymshare/ path prefix keeps the internal packages importable.
module asymshare/cmd/bench

go 1.22

require asymshare v0.0.0

replace asymshare => ../..
