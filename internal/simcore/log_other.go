//go:build !amd64

package simcore

// ln is pureLog. Here math.Log is compiled Go, which arm64, ppc64le and
// riscv64 may fuse, or assembly of its own (s390x): either way its last
// bit can differ from amd64's, and with it every golden.
func ln(x float64) float64 { return pureLog(x) }
