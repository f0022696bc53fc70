//go:build !live

package stress

// liveEnvelopes reports whether the wall-clock rebuild envelope is
// asserted outside the soak; see TestChurnStorm100k and live_test.go.
const liveEnvelopes = false
