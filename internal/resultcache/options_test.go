package resultcache

// WithFingerprint overrides the code-version fingerprint normally
// derived by Fingerprint. Tests use it to simulate a code change
// without rebuilding the binary.
func WithFingerprint(fp string) Option {
	return func(o *options) { o.fp = fp }
}
