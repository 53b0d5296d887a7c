//go:build !amd64

package kernel

// No accelerated kernel set exists for this architecture; the portable
// reference set is the only (and therefore the native-equivalent) choice.

func nativeSet() *Set     { return nil }
func cpuFeatures() string { return "" }

// SetWide has nothing to switch without the avx2 set.
func SetWide(bool) {}
