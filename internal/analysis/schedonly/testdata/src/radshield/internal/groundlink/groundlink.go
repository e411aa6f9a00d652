// Package groundlink stands in for the real socket package: its
// goroutines serve TCP links, outside campaign output, so they are a
// sanctioned concurrency boundary.
package groundlink

// Serve spawns one pipeline per link; sanctioned, so no finding.
func Serve(links []func()) {
	for _, handle := range links {
		go handle()
	}
}
