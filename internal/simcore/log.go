package simcore

import "math"

// pureLog is the standard library's pure-Go logarithm (math/log.go),
// with every product that feeds a sum rounded by float64(…), so no
// GOARCH may fuse it into a multiply-add (Go spec, "Floating-point
// operators"). Unfused, it is bit-equal to the amd64 assembly that
// math.Log runs there (TestPureLogMatchesMathLog); compiled Go on
// arm64 fuses its polynomial and differs in the last bit on a few
// draws in 10⁴. ln picks the logarithm for the GOARCH: math.Log on
// amd64, this one elsewhere.
//
// The method and constants are FreeBSD's /usr/src/lib/msun/src/e_log.c,
// via Go's math package (Copyright 2009 The Go Authors; BSD-style
// license), and came with this notice:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// x = 2**k * (1+f) with sqrt(2)/2 < 1+f < sqrt(2); with s = f/(2+f),
// log(1+f) = f - (hfsq - s*(hfsq+R)), R a degree-14 polynomial in s
// (error below 2**-58.45), and log(x) = k*Ln2 + log(1+f), Ln2 split
// into Ln2Hi + Ln2Lo so that k*Ln2Hi is exact for |k| < 2000.
func pureLog(x float64) float64 {
	const (
		Ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
		Ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
		L1    = 6.666666666666735130e-01   /* 3FE55555 55555593 */
		L2    = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
		L3    = 2.857142874366239149e-01   /* 3FD24924 94229359 */
		L4    = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
		L5    = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
		L6    = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
		L7    = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */
	)

	// special cases
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}

	// reduce
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)

	// compute
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (L1 + float64(s4*(L3+float64(s4*(L5+float64(s4*L7)))))))
	t2 := float64(s4 * (L2 + float64(s4*(L4+float64(s4*L6)))))
	R := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*Ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*Ln2Lo))) - f)
}
