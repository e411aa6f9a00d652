// This file ports the sine of Go's math package (sin.go), which carries
// this notice:
//
// Copyright 2011 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// The original C code, the long comment, and the constants
// below were from http://netlib.sandia.gov/cephes/cmath/sin.c,
// available from http://www.netlib.org/cephes/cmath.tgz.
// The go code is a simplified version of the original C.
//
// Cephes Math Library Release 2.8:  June, 2000
// Copyright 1984, 1987, 1989, 1992, 2000 by Stephen L. Moshier
//
// The readme file at http://netlib.sandia.gov/cephes/ says:
//    Some software in this archive may be from the book _Methods and
// Programs for Mathematical Functions_ (Prentice-Hall or Simon & Schuster
// International, 1989) or from the Cephes Mathematical Library, a
// commercial product. In either event, it is copyrighted by the author.
// What you see here may be used freely but it comes with no support or
// guarantee.

package machine

import "math"

// sinReduceMax bounds the arguments sin computes itself: from 2^29 up,
// math.Sin reduces its argument with Payne and Hanek's method instead of
// the Cody–Waite split below.
const sinReduceMax = 1 << 29

// sin returns math.Sin(x), bit for bit as amd64 computes it. The thermal
// drift's phase is positive and far below 2^29, so for 0 < x < 2^29 it
// runs math.sin's Cody–Waite reduction modulo π/4 and its two Cephes
// polynomials without the special cases; any other x goes to math.Sin.
//
// Every product that feeds a sum is converted explicitly, so no compiler
// fuses it into a multiply-add. amd64 never fuses, while the arm64,
// ppc64le and riscv64 compilers fuse math.sin's own 16 sites: there
// math.Sin rounds differently, and this port does not (DESIGN.md §9).
func sin(x float64) float64 {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,

		sin0 = 1.58962301576546568060e-10 // 0x3de5d8fd1fd19ccd
		sin1 = -2.50507477628578072866e-8 // 0xbe5ae5e5a9291f5d
		sin2 = 2.75573136213857245213e-6  // 0x3ec71de3567d48a1
		sin3 = -1.98412698295895385996e-4 // 0xbf2a01a019bfdf03
		sin4 = 8.33333333332211858878e-3  // 0x3f8111111110f7d0
		sin5 = -1.66666666666666307295e-1 // 0xbfc5555555555548

		cos0 = -1.13585365213876817300e-11 // 0xbda8fa49a0861a9b
		cos1 = 2.08757008419747316778e-9   // 0x3e21ee9d7b4e3f05
		cos2 = -2.75573141792967388112e-7  // 0xbe927e4f7eac4bc6
		cos3 = 2.48015872888517045348e-5   // 0x3efa01a019c844f5
		cos4 = -1.38888888888730564116e-3  // 0xbf56c16c16c14f91
		cos5 = 4.16666666666665929218e-2   // 0x3fa555555555554b
	)
	if !(x > 0 && x < sinReduceMax) {
		return math.Sin(x)
	}
	// x/(Pi/4) is below 2^30, where converting through int64 gives
	// math.sin's uint64 conversions exactly, in one instruction each and
	// with no 2^63 branch (whose subtraction ppc64le fuses with the
	// product).
	n := int64(x * (4 / math.Pi))
	j := uint64(n)  // integer part of x/(Pi/4), as integer for tests on the phase angle
	y := float64(n) // integer part of x/(Pi/4), as float

	// map zeros to origin
	if j&1 == 1 {
		j++
		y++
	}
	j &= 7                                                           // octant modulo 2Pi radians (360 degrees)
	z := ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C) // Extended precision modular arithmetic

	// reflect in x axis
	neg := j > 3
	if neg {
		j -= 4
	}
	zz := float64(z * z)
	if j == 1 || j == 2 {
		p := float64(cos0*zz) + cos1
		p = float64(p*zz) + cos2
		p = float64(p*zz) + cos3
		p = float64(p*zz) + cos4
		p = float64(p*zz) + cos5
		y = 1.0 - float64(0.5*zz) + float64(float64(zz*zz)*p)
	} else {
		p := float64(sin0*zz) + sin1
		p = float64(p*zz) + sin2
		p = float64(p*zz) + sin3
		p = float64(p*zz) + sin4
		p = float64(p*zz) + sin5
		y = z + float64(float64(z*zz)*p)
	}
	if neg {
		y = -y
	}
	return y
}
