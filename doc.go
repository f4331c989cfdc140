// Package commtopk is a communication-efficient distributed top-k selection
// library, reproducing "Communication Efficient Algorithms for Top-k
// Selection Problems" (Hübschle-Schneider, Sanders, Müller; IPDPS 2016).
//
// The library runs the paper's algorithms on a simulated distributed machine
// (internal/comm): p processing elements run the same SPMD program — as
// resumable steppers, or as blocking bodies that run as coroutines behind
// a stepper, multiplexed over a few scheduler goroutines — exchanging messages
// through per-receiver mailboxes (or, with internal/wire, across OS
// processes), with every message metered in machine words and startups so
// that the paper's cost model O(x + βy + αz) is directly observable.
//
// Entry points live in internal/core (high-level façade) and the per-problem
// packages internal/sel, internal/bpq, internal/freq, internal/agg,
// internal/mtopk and internal/redist. See DESIGN.md for the system
// inventory, EXPERIMENTS.md for the reproduced evaluation and
// bench/README.md for the gated benchmark.
package commtopk
