//go:build !live

package bench

// liveEnvelopes reports whether wall-clock envelopes are asserted; see
// envelope and live_test.go.
const liveEnvelopes = false
