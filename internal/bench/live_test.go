//go:build live

package bench

// liveEnvelopes: built with -tags live (make conformance-live), every
// envelope in this package's tests is asserted, not only logged.
const liveEnvelopes = true
