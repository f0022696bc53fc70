//go:build !live

package conformance

// liveEnvelopes reports whether wall-clock envelopes are asserted; see
// envelope and live_test.go.
const liveEnvelopes = false

// recordTapes is the -record-tapes flag of live builds; tier-1 never
// records.
var recordTapes = new(bool)
