// Package telemetry holds the registry and its JSON, and no sockets: a
// raw goroutine here is flagged like any other.
package telemetry

// Flush writes snapshots on a bare goroutine.
func Flush(write func()) {
	go write() // want `raw goroutine outside the sanctioned concurrency boundaries`
}
