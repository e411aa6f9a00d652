// Package downlink simulates the link and opens no socket: a raw
// goroutine here is flagged like any other.
package downlink

// Pump drains a channel on a bare goroutine.
func Pump(frames <-chan []byte) {
	go func() { // want `raw goroutine outside the sanctioned concurrency boundaries`
		for range frames {
		}
	}()
}
