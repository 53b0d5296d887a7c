//go:build !amd64 || purego

package kernel

// No accelerated kernel set exists off amd64, nor in a purego build, which
// compiles no kernel assembly: the portable reference set is the only choice.

func nativeSet() *Set     { return nil }
func cpuFeatures() string { return "" }

// SetWide has nothing to switch without the avx2 set.
func SetWide(bool) {}
