package ingest

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// scanFloat reads the JSON number at p[i] as encoding/json reads it into a
// float64, returning the value and the index after the number; a number
// strconv reports out of range is not ok. One pass checks the grammar
// scanNumber enforces and gathers the decimal mantissa and exponent, which
// exactFloat converts; the numbers it cannot convert exactly (more than 19
// significant digits, an exponent outside the power table, an ambiguous
// Eisel–Lemire result) go to strconv.ParseFloat, so every result is
// bit-identical to strconv's.
func scanFloat(p []byte, i int) (float64, int, bool) {
	start := i
	neg := i < len(p) && p[i] == '-'
	if neg {
		i++
	}
	var man uint64 // significant digits, leading zeros dropped
	nd := 0        // digits in man
	exp10 := 0     // man·10^exp10 is the number, before the exponent part
	long := false  // more than maxMantDigits significant digits
	switch {
	case i == len(p):
		return 0, i, false
	case p[i] == '0':
		i++
	case '1' <= p[i] && p[i] <= '9':
		for ; i < len(p) && '0' <= p[i] && p[i] <= '9'; i++ {
			if nd == maxMantDigits {
				long = true
				continue
			}
			man = man*10 + uint64(p[i]-'0')
			nd++
		}
	default:
		return 0, i, false
	}
	if i < len(p) && p[i] == '.' {
		j := i + 1
		for ; j < len(p) && '0' <= p[j] && p[j] <= '9'; j++ {
			switch {
			case nd == maxMantDigits:
				long = true
			case man != 0 || p[j] != '0': // leading zeros are not significant
				man = man*10 + uint64(p[j]-'0')
				nd++
			}
			exp10--
		}
		if j == i+1 {
			return 0, j, false
		}
		i = j
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		i++
		eneg := false
		if i < len(p) && (p[i] == '+' || p[i] == '-') {
			eneg = p[i] == '-'
			i++
		}
		e, j := 0, i
		for ; j < len(p) && '0' <= p[j] && p[j] <= '9'; j++ {
			if e < 10000 { // far past the table either way; no overflow
				e = e*10 + int(p[j]-'0')
			}
		}
		if j == i {
			return 0, j, false
		}
		i = j
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if !long {
		if f, ok := exactFloat(man, exp10, neg); ok {
			return f, i, true
		}
	}
	f, err := strconv.ParseFloat(string(p[start:i]), 64)
	return f, i, err == nil
}

// maxMantDigits is how many significant decimal digits a uint64 mantissa
// always holds (10^19 < 2^64).
const maxMantDigits = 19

// float64pow10 are the powers of ten a float64 holds exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exactFloat returns the float64 nearest man·10^exp10 (ties to even), as
// strconv rounds it, or not ok where it cannot be sure of that value.
// Clinger's fast path takes a mantissa below 2^53 with |exp10| ≤ 22: both
// operands are exact, so one IEEE multiply or divide rounds correctly.
// Everything else inside the power table goes to Eisel–Lemire.
func exactFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if man < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(man)
		if exp10 >= 0 {
			f *= float64pow10[exp10]
		} else {
			f /= float64pow10[-exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(man, exp10, neg)
}

// pow10Min and pow10Max bound the exponents powersOfTen covers. Sensor
// readings and timestamps sit far inside; a number outside goes to strconv.
const (
	pow10Min = -64
	pow10Max = 64
)

// powersOfTen holds, for each 10^q with q in [pow10Min, pow10Max], its
// mantissa normalised to 128 bits and rounded down, as {high, low} words:
// 10^q ≈ (hi·2^64 + lo)·2^e with hi's top bit set. Eisel–Lemire multiplies
// by it.
var powersOfTen = func() (t [pow10Max - pow10Min + 1][2]uint64) {
	var v, pow big.Int
	var b [16]byte
	for q := pow10Min; q <= pow10Max; q++ {
		pow.Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		if q >= 0 {
			// 10^q itself, shifted to exactly 128 bits.
			if n := pow.BitLen(); n > 128 {
				v.Rsh(&pow, uint(n-128))
			} else {
				v.Lsh(&pow, uint(128-n))
			}
		} else {
			// ⌊2^k / 10^|q|⌋ with k = 127 + bitlen(10^|q|) lies in
			// (2^127, 2^128): 10^|q| is not a power of two.
			v.Lsh(big.NewInt(1), uint(127+pow.BitLen()))
			v.Quo(&v, &pow)
		}
		v.FillBytes(b[:])
		t[q-pow10Min] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	return t
}()

// eiselLemire converts man·10^exp10 (man ≠ 0) by the Eisel–Lemire
// algorithm (Lemire, "Number Parsing at a Gigabyte per Second", 2021), in
// the form Go's strconv uses. It gives up (not ok) where the truncated
// 128-bit product cannot decide the rounding, and on subnormal or infinite
// results, all of which strconv.ParseFloat handles.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &powersOfTen[exp10-pow10Min]
	// Normalise the mantissa so its top bit is set; 217706/2^16 ≈ log2(10).
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		// The low bits are all ones and may carry: widen with the low word.
		yHi, yLo := bits.Mul64(man, pow[1])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	// Keep 54 bits, then round to 53.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // exactly halfway between two floats: strconv decides
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 wraps below 1 for subnormals and is 0x7FF or more for infinity.
	// Neither occurs within this table's range; the check keeps the kernel
	// correct should the range grow.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
