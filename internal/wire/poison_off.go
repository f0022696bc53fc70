//go:build !jmsdebug

package wire

// poisonSlabs is set by the jmsdebug build tag (see slab.Unref).
const poisonSlabs = false
