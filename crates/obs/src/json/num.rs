//! The number writer behind [`super::write_f64`], [`write_u64`] and
//! [`write_i64`]: the bytes of Rust's `{}` Display, without going through
//! `core::fmt`.
//!
//! A finite `f64` takes its shortest round-trip digits from Ryu's `d2d`
//! (Ulf Adams, PLDI 2018) and is laid out as Display lays them out: no
//! exponent, zeros padded after large values and before small ones, `-0`
//! for negative zero. One rule differs from Ryu: where the value lies
//! exactly halfway between the two nearest shortest candidates, Display
//! rounds half up and Ryu rounds half to even (`0x431f003bd0f70bad` prints
//! `2181495296738027.3` in Display and `…27.2` in Ryu), so the writer
//! keeps Display's rule and Ryu's even-tie bookkeeping is gone.
//!
//! Ryu's two tables of 125-bit powers of five are computed at compile
//! time from a 17-limb integer, exactly; the tests recompute them by long
//! division.

/// `"00" "01" … "99"`: digits are written two per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Fills `buf` with the last `buf.len()` decimal digits of `n`: eight
/// per 64-bit division, then two per 32-bit one.
fn fill_digits(buf: &mut [u8], mut n: u64) {
    let pair = |buf: &mut [u8], at: usize, p: u32| {
        let p = 2 * p as usize;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[p..p + 2]);
    };
    let mut at = buf.len();
    while at > 8 {
        let chunk = (n % 100_000_000) as u32;
        n /= 100_000_000;
        let (high, low) = (chunk / 10_000, chunk % 10_000);
        pair(buf, at - 2, low % 100);
        pair(buf, at - 4, low / 100);
        pair(buf, at - 6, high % 100);
        pair(buf, at - 8, high / 100);
        at -= 8;
    }
    let mut n = n as u32;
    while at >= 2 {
        at -= 2;
        pair(buf, at, n % 100);
        n /= 100;
    }
    if at == 1 {
        buf[0] = b'0' + n as u8;
    }
}

fn ascii(text: &[u8]) -> &str {
    std::str::from_utf8(text).expect("decimal digits are ASCII")
}

/// Appends an unsigned integer, as Display spells it.
pub fn write_u64(out: &mut String, n: u64) {
    let mut buf = [0; 20];
    let digits = &mut buf[..decimal_len(n)];
    fill_digits(digits, n);
    out.push_str(ascii(digits));
}

/// Appends a signed integer, as Display spells it.
pub fn write_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    write_u64(out, n.unsigned_abs());
}

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;

/// Appends a finite `f64` as Display spells it: the shortest digits that
/// read back to the same bits, in positional notation.
pub(super) fn write_finite_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite());
    let bits = v.to_bits();
    if bits >> 63 != 0 {
        out.push('-');
    }
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push('0');
        return;
    }
    // An integer below 2^53 is its own shortest spelling.
    let shift = (EXPONENT_BIAS + MANTISSA_BITS as i32) - ieee_exponent as i32;
    if (0..=MANTISSA_BITS as i32).contains(&shift) {
        let m2 = (1 << MANTISSA_BITS) | ieee_mantissa;
        if m2 & ((1 << shift) - 1) == 0 {
            return write_u64(out, m2 >> shift);
        }
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    let len = decimal_len(mantissa);
    // How many of the digits stand before the decimal point.
    let point = len as i32 + exponent;
    // `0.00ddd`, `ddd00` or `dd.ddd`, laid into a buffer of zeros and
    // pushed at once; only a value beyond it takes the slow path.
    let width = if point <= 0 {
        2 + point.unsigned_abs() as usize + len
    } else if point as usize >= len {
        point as usize
    } else {
        len + 1
    };
    let mut buf = [b'0'; 40];
    let Some(text) = buf.get_mut(..width) else {
        return write_wide(out, mantissa, len, point);
    };
    if point <= 0 {
        text[1] = b'.';
        fill_digits(&mut text[width - len..], mantissa);
    } else if point as usize >= len {
        fill_digits(&mut text[..len], mantissa);
    } else {
        let point = point as usize;
        fill_digits(&mut text[1..], mantissa);
        text.copy_within(1..=point, 0);
        text[point] = b'.';
    }
    out.push_str(ascii(text));
}

/// [`write_finite_f64`]'s layout for a value of more than 40 characters:
/// above 10^40, or small enough to need more than 20 zeros after the
/// point. Its digits all stand on one side of the point.
#[cold]
fn write_wide(out: &mut String, mantissa: u64, len: usize, point: i32) {
    let mut buf = [0; 17];
    let digits = &mut buf[..len];
    fill_digits(digits, mantissa);
    let zeros = |out: &mut String, n: usize| out.extend(std::iter::repeat_n('0', n));
    if point <= 0 {
        out.push_str("0.");
        zeros(out, point.unsigned_abs() as usize);
        out.push_str(ascii(digits));
    } else {
        out.push_str(ascii(digits));
        zeros(out, point as usize - len);
    }
}

/// Ryu's `d2d`: the shortest decimal `mantissa × 10^exponent` inside the
/// interval of reals that round to this non-zero `f64`, and of those the
/// nearest to it, an exact tie rounded up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // The value is mv × 2^e2 with mv = 4·m2, so that the interval's ends,
    // half a unit either side, are integers too.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even parsing reads an interval end back to this value
    // when the mantissa is even.
    let accept_bounds = m2.is_multiple_of(2);
    let mv = 4 * m2;
    // The gap below is half as wide at the bottom of a binade.
    let mm_shift = (ieee_mantissa != 0 || ieee_exponent <= 1) as u64;
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Scale the three to decimal, vx = floor(mx × 2^e2 / 10^e10),
    // exactly through the 125-bit tables.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - (e2 > 3) as u32;
        e10 = q as i32;
        let k = POW5_BITS + pow5_bits(q) - 1;
        let j = (q as i32 - e2 + k as i32) as u32;
        let mul = POW5_INV[q as usize];
        (vr, vp, vm) = (mul_shift(mv, mul, j), mul_shift(mp, mul, j), mul_shift(mm, mul, j));
        // At most one of mp, mv and mm is a multiple of 5. Whether mv's
        // truncation dropped only zeros decides nothing under half-up
        // rounding; an end that is exact moves the interval.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = pow5_factor(mm) >= q;
            } else {
                vp -= (pow5_factor(mp) >= q) as u64;
            }
        }
    } else {
        let q = log10_pow5(-e2 as u32) - (-e2 > 1) as u32;
        e10 = q as i32 + e2;
        let i = (-e2 - q as i32) as u32;
        let j = (q as i32 - (pow5_bits(i) as i32 - POW5_BITS as i32)) as u32;
        let mul = POW5[i as usize];
        (vr, vp, vm) = (mul_shift(mv, mul, j), mul_shift(mp, mul, j), mul_shift(mm, mul, j));
        if q <= 1 {
            // mm has a trailing zero bit exactly when mm_shift is 1; mp
            // always has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Remove digits while the interval still holds a shorter number.
    let mut removed = 0;
    let mut last_removed_digit = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm.is_multiple_of(10);
        last_removed_digit = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    // An included lower end that is itself shorter.
    if vm_is_trailing_zeros {
        while vm.is_multiple_of(10) {
            last_removed_digit = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Round up when vr fell below an excluded lower end, and half up.
    let round_up =
        (vr == vm && (!accept_bounds || !vm_is_trailing_zeros)) || last_removed_digit >= 5;
    (vr + round_up as u64, e10 + removed)
}

/// `ceil(log2(5^e))`, or 1 at `e = 0`: the bit length of `5^e`
/// (`e ≤ 3528`).
fn pow5_bits(e: u32) -> u32 {
    ((e * 1217359) >> 19) + 1
}

/// `floor(log10(2^e))` (`e ≤ 1650`).
fn log10_pow2(e: u32) -> u32 {
    (e * 78913) >> 18
}

/// `floor(log10(5^e))` (`e ≤ 2620`).
fn log10_pow5(e: u32) -> u32 {
    (e * 732923) >> 20
}

/// How many times 5 divides `v` (`v > 0`).
fn pow5_factor(mut v: u64) -> u32 {
    let mut n = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        n += 1;
    }
    n
}

/// `floor(m × mul / 2^j)` for a 125-bit `mul` and `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Width of both tables' entries.
const POW5_BITS: u32 = 125;

/// The top 125 bits of `5^i`, truncated (`i < 326`).
const POW5: &[u128; 326] = &pow5_table();

/// `floor(2^j / 5^i) + 1` with `j = bitlen(5^i) − 1 + 125` (`i < 342`).
const POW5_INV: &[u128; 342] = &pow5_inv_table();

/// Limbs of the tables' scratch integer, little-endian: room for
/// `2^1024` and for `5^341`.
const LIMBS: usize = 17;

const fn pow5_table() -> [u128; 326] {
    let mut table = [0; 326];
    let mut pow5 = [0; LIMBS];
    pow5[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = bit_len(&pow5);
        table[i] = if len >= POW5_BITS {
            shr(&pow5, len - POW5_BITS)
        } else {
            shr(&pow5, 0) << (POW5_BITS - len)
        };
        mul5(&mut pow5);
        i += 1;
    }
    table
}

/// Holds `floor(2^1024 / 5^i)` and divides it by 5 once per step: floors
/// compose, so shifting it right by `1024 − j` is `floor(2^j / 5^i)`.
const fn pow5_inv_table() -> [u128; 342] {
    let mut table = [0; 342];
    let mut pow5 = [0; LIMBS];
    pow5[0] = 1;
    let mut inv = [0; LIMBS];
    inv[16] = 1;
    let mut i = 0;
    while i < table.len() {
        let j = bit_len(&pow5) - 1 + POW5_BITS;
        table[i] = shr(&inv, 1024 - j) + 1;
        mul5(&mut pow5);
        div5(&mut inv);
        i += 1;
    }
    table
}

const fn mul5(x: &mut [u64; LIMBS]) {
    let mut carry = 0;
    let mut k = 0;
    while k < LIMBS {
        let p = x[k] as u128 * 5 + carry;
        x[k] = p as u64;
        carry = p >> 64;
        k += 1;
    }
}

const fn div5(x: &mut [u64; LIMBS]) {
    let mut rem = 0u128;
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        let cur = rem << 64 | x[k] as u128;
        x[k] = (cur / 5) as u64;
        rem = cur % 5;
    }
}

const fn bit_len(x: &[u64; LIMBS]) -> u32 {
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        if x[k] != 0 {
            return 64 * k as u32 + 64 - x[k].leading_zeros();
        }
    }
    0
}

/// `floor(x / 2^s) mod 2^128`.
const fn shr(x: &[u64; LIMBS], s: u32) -> u128 {
    const fn limb(x: &[u64; LIMBS], k: usize) -> u128 {
        if k < LIMBS {
            x[k] as u128
        } else {
            0
        }
    }
    let (k, b) = ((s / 64) as usize, s % 64);
    let low = limb(x, k) | limb(x, k + 1) << 64;
    if b == 0 {
        low
    } else {
        low >> b | limb(x, k + 2) << (128 - b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn written(v: f64) -> String {
        let mut out = String::new();
        write_finite_f64(&mut out, v);
        out
    }

    /// A big integer for the oracle, little-endian `u32` limbs, built
    /// apart from the `u64` arithmetic of the tables.
    #[derive(Clone, PartialEq, PartialOrd)]
    struct Big(Vec<u32>);

    impl Big {
        fn one() -> Big {
            Big(vec![1])
        }

        fn bit(&self, i: usize) -> bool {
            self.0.get(i / 32).is_some_and(|w| w >> (i % 32) & 1 == 1)
        }

        fn bit_len(&self) -> usize {
            (0..self.0.len() * 32).rev().find(|&i| self.bit(i)).map_or(0, |i| i + 1)
        }

        fn mul_small(&self, m: u32) -> Big {
            let mut carry = 0u64;
            let mut limbs: Vec<u32> = self
                .0
                .iter()
                .map(|&w| {
                    let p = w as u64 * m as u64 + carry;
                    carry = p >> 32;
                    p as u32
                })
                .collect();
            limbs.push(carry as u32);
            Big(limbs)
        }

        /// `self − d` for `d ≤ self`.
        fn sub(&self, d: &Big) -> Big {
            let mut borrow = 0i64;
            let limbs = (0..self.0.len())
                .map(|k| {
                    let v = self.0[k] as i64 - *d.0.get(k).unwrap_or(&0) as i64 - borrow;
                    borrow = (v < 0) as i64;
                    v.rem_euclid(1 << 32) as u32
                })
                .collect();
            Big(limbs)
        }

        fn ge(&self, d: &Big) -> bool {
            let n = self.0.len().max(d.0.len());
            let at = |b: &Big, k: usize| *b.0.get(k).unwrap_or(&0);
            (0..n)
                .rev()
                .map(|k| at(self, k).cmp(&at(d, k)))
                .find(|o| o.is_ne())
                .is_none_or(|o| o.is_gt())
        }

        /// Bits `[from, from + 128)` as an integer.
        fn bits(&self, from: usize) -> u128 {
            (0..128).filter(|&i| self.bit(from + i)).fold(0, |acc, i| acc | 1 << i)
        }
    }

    /// `floor(2^j / d)` by schoolbook binary long division.
    fn long_division(j: usize, d: &Big) -> u128 {
        let mut rem = Big(vec![0]);
        let mut quotient = 0u128;
        for bit in (0..=j).rev() {
            rem = rem.mul_small(2);
            if bit == j {
                rem.0[0] |= 1;
            }
            let take = rem.ge(d);
            if take {
                rem = rem.sub(d);
            }
            assert!(bit >= 128 || !take || quotient >> 127 == 0, "quotient overflows 128 bits");
            quotient = quotient << 1 | take as u128;
        }
        quotient
    }

    #[test]
    fn const_tables_match_long_division() {
        let mut pow5 = Big::one();
        for i in 0..POW5_INV.len() {
            let len = pow5.bit_len();
            assert_eq!(len as u32, pow5_bits(i as u32), "bit length of 5^{i}");
            if i < POW5.len() {
                let top =
                    if len >= 125 { pow5.bits(len - 125) } else { pow5.bits(0) << (125 - len) };
                assert_eq!(POW5[i], top, "5^{i}");
            }
            assert_eq!(POW5_INV[i], long_division(len - 1 + 125, &pow5) + 1, "1/5^{i}");
            pow5 = pow5.mul_small(5);
        }
    }

    #[test]
    fn a_fixed_corpus_prints_as_display_does() {
        let mut corpus = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1,
            0.3,
            1.5,
            -2.25,
            123456.789,
            9007199254740991.0,
            9007199254740992.0,
            9007199254740994.0,
            1e21,
            1e-7,
            123e-20,
            f64::from_bits(0x431f_003b_d0f7_0bad),
        ];
        corpus.extend((-1074..=1023).map(|k| 2f64.powi(k)));
        corpus.extend((-323..=308).map(|k| format!("1e{k}").parse::<f64>().unwrap()));
        corpus.extend((0..=1000).map(f64::from));
        corpus.extend((0..=53).flat_map(|k| {
            let p = (1u64 << k) as f64;
            [p - 1.0, p + 1.0, -p]
        }));
        for v in corpus {
            assert_eq!(written(v), format!("{v}"), "{:#018x}", v.to_bits());
        }
        // Display rounds an exact tie half up, where Ryu rounds to even.
        assert_eq!(written(f64::from_bits(0x431f_003b_d0f7_0bad)), "2181495296738027.3");
    }

    #[test]
    fn integers_print_as_display_does() {
        for n in [0, 9, 10, 99, 100, 101, 999, 1000, 12345678901234567890, u64::MAX] {
            let mut out = String::new();
            write_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
        for n in [0, -1, 9, -9, 10, -10, 99, 100, -100, i64::MIN, i64::MAX, i64::MIN + 1] {
            let mut out = String::new();
            write_i64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    proptest! {
        #[test]
        fn any_finite_bit_pattern_prints_as_display_does(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                prop_assert_eq!(written(v), format!("{v}"), "{:#018x}", bits);
            }
        }

        /// Bit patterns near 1, where the configurations and scores live.
        #[test]
        fn ordinary_magnitudes_print_as_display_does(bits in any::<u64>(), e in -40i64..40) {
            let v = f64::from_bits(bits & 0x800f_ffff_ffff_ffff | ((1023 + e) as u64) << 52);
            prop_assert_eq!(written(v), format!("{v}"), "{:#018x}", v.to_bits());
        }

        /// Short decimals, as a person or a grid writes them.
        #[test]
        fn short_decimals_print_as_display_does(n in 0u64..1_000_000_000, k in 0i32..15) {
            let v = n as f64 / 10f64.powi(k);
            prop_assert_eq!(written(v), format!("{v}"), "{:#018x}", v.to_bits());
        }

        #[test]
        fn any_integer_prints_as_display_does(n in any::<i64>()) {
            let (mut signed, mut unsigned) = (String::new(), String::new());
            write_i64(&mut signed, n);
            write_u64(&mut unsigned, n as u64);
            prop_assert_eq!(signed, n.to_string());
            prop_assert_eq!(unsigned, (n as u64).to_string());
        }
    }
}
