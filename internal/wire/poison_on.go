//go:build jmsdebug

package wire

// poisonSlabs is set by the jmsdebug build tag (see slab.Unref): a released
// slab is poisoned, so a read after release shows as corrupted content in
// the round-trip, fan-out and mesh tests.
const poisonSlabs = true
