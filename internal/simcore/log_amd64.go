package simcore

import "math"

// ln is math.Log, whose amd64 assembly is bit-equal to pureLog and
// faster (TestPureLogMatchesMathLog holds the two together).
func ln(x float64) float64 { return math.Log(x) }
