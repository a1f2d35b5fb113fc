//go:build !race

package sched

// raceEnabled reports a -race build, where sync.Pool drops a share of
// Puts on purpose and so pooled workspaces are re-allocated.
const raceEnabled = false
