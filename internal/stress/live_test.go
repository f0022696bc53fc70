//go:build live

package stress

// liveEnvelopes: built with -tags live (make conformance-live), the
// wall-clock rebuild envelope is asserted, not only logged.
const liveEnvelopes = true
