// Package pool runs indexed work over a bounded set of goroutines. LP-HTA's
// clusters, mecd's dirty shards and the experiment sweeps are independent
// jobs whose results land in per-index slots and are merged in index
// order, so their output never depends on the worker count.
package pool
