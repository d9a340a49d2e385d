//! The numbers of the JSONL encoding: every `f64`, integer and `bool`
//! an [`Event`](crate::Event) carries, appended byte for byte as
//! `Display` (`{v}`) renders it, without going through `core::fmt`.
//!
//! Floats get the shortest decimal that reads back to the same bits
//! and, among those, the one closest to the exact value. The digits
//! come from Ryu (Adams, "Ryū: fast float-to-string conversion",
//! PLDI 2018), which finds them with three 64 × 128-bit multiplies
//! against two tables of powers of five (the [`table`] module, static
//! literals). Two rules make the bytes `Display`'s rather than Ryu's:
//! - **layout**: never an exponent. The digits `d` and decimal exponent
//!   `e` print as `0.000ddd`, `dd.ddd` or `ddd000`; `-` leads every
//!   negative value, `-0` included; NaN and ±inf print as `NaN`, `inf`
//!   and `-inf`;
//! - **ties**: when the exact value lies halfway between the two
//!   shortest candidates, `Display` takes the upper one where Ryu rounds
//!   half to even: 2⁻²⁵ renders as `0.000000029802322387695313`, not
//!   `…312`. Ryu tracks whether the digits it drops are all zeros only
//!   to spot that tie, so the search here does not track it.
//!
//! The tests hold every writer to `Display` / `to_string` as the
//! oracle: random bit patterns, every power of two and ten in range,
//! small integers and `k/1000` decimals.

use std::iter;

mod table;

use table::{POW5_INV_SPLIT, POW5_SPLIT};

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each power of five (and of each inverse) in the tables.
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;

/// `"00"` through `"99"`, indexed by value.
static DIGIT_PAIRS: [[u8; 2]; 100] = digit_pairs();

const fn digit_pairs() -> [[u8; 2]; 100] {
    let mut pairs = [[0; 2]; 100];
    let mut i = 0;
    #[expect(clippy::indexing_slicing, reason = "`i < 100`, the table's length")]
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
}

/// Appends `v` as `Display` renders it.
pub(crate) fn write_bool(v: bool, out: &mut String) {
    out.push_str(if v { "true" } else { "false" });
}

/// Appends `v` in decimal, as `Display` renders it.
pub(crate) fn write_u64(v: u64, out: &mut String) {
    // 40 % of the integers a seed-42 `steady_traced` trace writes are one
    // digit (2.64 M of 6.65 M; the rest spread from 2 to 14 digits).
    // Skipping the generator for them takes about 13 % off
    // `obs/emit/jsonl_writer`.
    if v < 10 {
        out.push(char::from(b'0' + v as u8));
    } else {
        push_ascii(Digits::new(v).as_bytes(), out);
    }
}

/// Appends `v` as `Display` renders it: the shortest round-trip digits,
/// laid out without an exponent.
pub(crate) fn write_f64(v: f64, out: &mut String) {
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    if ieee_exponent == 0x7ff {
        out.push_str(match (ieee_mantissa, negative) {
            (0, false) => "inf",
            (0, true) => "-inf",
            _ => "NaN",
        });
        return;
    }
    if negative {
        out.push('-');
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push('0');
        return;
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    let digits = Digits::new(mantissa);
    let digits = digits.as_bytes();
    // The value is 0.digits × 10^point.
    let point = digits.len() as i32 + exponent;
    if point <= 0 {
        out.push_str("0.");
        out.extend(iter::repeat_n('0', point.unsigned_abs() as usize));
        push_ascii(digits, out);
    } else if let Some((whole, fraction)) = digits
        .split_at_checked(point as usize)
        .filter(|(_, fraction)| !fraction.is_empty())
    {
        push_ascii(whole, out);
        out.push('.');
        push_ascii(fraction, out);
    } else {
        push_ascii(digits, out);
        out.extend(iter::repeat_n('0', point as usize - digits.len()));
    }
}

/// Appends ASCII bytes one `char` at a time. The mask tells the
/// compiler each byte is one UTF-8 unit; `str::from_utf8` plus
/// `push_str` costs about twice as much on a 17-digit number.
fn push_ascii(bytes: &[u8], out: &mut String) {
    out.reserve(bytes.len());
    for &byte in bytes {
        out.push(char::from(byte & 0x7f));
    }
}

/// The decimal digits of a `u64`, most significant first.
struct Digits {
    /// Right-aligned, eight digits per step of the generator.
    pairs: [[u8; 2]; 12],
    len: usize,
}

impl Digits {
    fn new(v: u64) -> Self {
        let mut pairs = [[0; 2]; 12];
        let mut rest = v;
        let mut len = 0;
        for chunk in pairs.rchunks_exact_mut(4) {
            // One 64-bit division per eight digits; the four pairs
            // below it are independent 32-bit work.
            let low = (rest % 100_000_000) as u32;
            rest /= 100_000_000;
            let (high4, low4) = (low / 10_000, low % 10_000);
            #[expect(
                clippy::indexing_slicing,
                reason = "every pair is below 100 (a quotient or remainder of four digits by 100), the table's length"
            )]
            for (slot, pair) in
                chunk
                    .iter_mut()
                    .zip([high4 / 100, high4 % 100, low4 / 100, low4 % 100])
            {
                *slot = DIGIT_PAIRS[pair as usize];
            }
            if rest == 0 {
                len += low.checked_ilog10().map_or(1, |log| log as usize + 1);
                break;
            }
            len += 8;
        }
        Digits { pairs, len }
    }

    fn as_bytes(&self) -> &[u8] {
        let flat = self.pairs.as_flattened();
        flat.get(flat.len() - self.len..).unwrap_or_default()
    }
}

/// The shortest decimal `(digits, exponent)` with `digits × 10^exponent`
/// inside the round-trip interval of the positive finite non-zero
/// `f64` with these fields, the closest one to the exact value, ties
/// taken upward.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // The value is m2 × 2^e2; the search works on 4·m2 (two spare bits
    // for the interval bounds), hence the extra −2.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        let e2 = ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2;
        (e2, (1 << MANTISSA_BITS) | ieee_mantissa)
    };
    // Round-to-even on reading back: an even mantissa owns its bounds.
    let accept_bounds = m2 & 1 == 0;
    // 0 for a power of two above the smallest normal, whose lower
    // neighbour is half as far as its upper one.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mv = 4 * m2;
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Scale the interval [mm, mp] around mv by 10^-e10 (truncating), and
    // note whether the lower bound lost only zeros on the way: then it is
    // itself a candidate. An exact upper bound the value does not own is
    // stepped back by one instead.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let shift = (-e2 + q as i32 + k) as u32;
        // q ≤ log10(2^969) = 291 < 342.
        #[expect(
            clippy::indexing_slicing,
            reason = "`q <= 291 < 342`, the table's length (see above)"
        )]
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // A bound is exact when 5^q divides it (e2 ≥ q supplies the
        // twos). Ryu shows this can decide the output only for q ≤ 21,
        // and at most one of mm, mv, mp is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let shift = (q as i32 - k) as u32;
        // i ≤ 1076 − log10(5^1076) = 325 < 326.
        #[expect(
            clippy::indexing_slicing,
            reason = "`i <= 325 < 326`, the table's length (see above)"
        )]
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // With q ≤ 1 a bound is exact when it has a trailing zero bit: mp
        // always does, mm only when mm_shift is 1. Below that, neither
        // bound is exact.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate,
    // then round the value's own digits to the length reached. Ryu tracks
    // whether the dropped digits were exactly 5 then zeros, to round that
    // tie to even; `Display` rounds it up, which a dropped 5 already does.
    let mut removed = 0;
    let mut last_removed_digit = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm.is_multiple_of(10);
        last_removed_digit = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // The exact lower bound is a candidate: shorten it further.
        while vm.is_multiple_of(10) {
            last_removed_digit = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Round up past the value's digits, or off a lower bound the value
    // does not own.
    let round_up = last_removed_digit >= 5 || (vr == vm && !vm_is_trailing_zeros);
    (vr + u64::from(round_up), e10 + removed)
}

/// The top bits of `m × mul`, shifted right by `shift` (≥ 64).
fn mul_shift(m: u64, mul: u128, shift: u32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// `⌈log2(5^e)⌉` for `0 ≤ e ≤ 3528` (`1` for `e = 0`).
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether `5^p` divides `value` (`value > 0`).
fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::fmt::Write as _;

    use super::*;

    /// Random cases per generator: the oracle tests run about 200 k
    /// cases under a debug `cargo test` and about 20 M under `--release`.
    #[cfg(debug_assertions)]
    const RANDOM_CASES: u64 = 30_000;
    #[cfg(not(debug_assertions))]
    const RANDOM_CASES: u64 = 4_000_000;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 32
    }

    /// 64 random bits from two LCG steps (the low bits of one step are
    /// weak).
    fn random_u64(state: &mut u64) -> u64 {
        (lcg(state) << 32) | lcg(state)
    }

    /// Renders `v` both ways, reusing the two buffers.
    struct Oracle {
        ours: String,
        display: String,
    }

    impl Oracle {
        fn new() -> Self {
            Oracle {
                ours: String::new(),
                display: String::new(),
            }
        }

        fn f64(&mut self, v: f64) {
            self.ours.clear();
            self.display.clear();
            write_f64(v, &mut self.ours);
            write!(self.display, "{v}").expect("write to String");
            assert_eq!(self.ours, self.display, "bits {:#018x}", v.to_bits());
        }

        fn u64(&mut self, v: u64) {
            self.ours.clear();
            write_u64(v, &mut self.ours);
            assert_eq!(self.ours, v.to_string());
        }
    }

    #[test]
    fn floats_match_display_on_random_bit_patterns() {
        let mut oracle = Oracle::new();
        let mut state = 42;
        for _ in 0..2 * RANDOM_CASES {
            oracle.f64(f64::from_bits(random_u64(&mut state)));
        }
        // Subnormals are 1 in 2048 of the draws above; give them their own.
        for _ in 0..RANDOM_CASES / 10 {
            oracle.f64(f64::from_bits(random_u64(&mut state) >> 12));
        }
    }

    #[test]
    fn floats_match_display_on_short_decimals() {
        // Values a trace actually carries: a few significant digits at
        // a modest scale, and the sums and ratios computed from them.
        let mut oracle = Oracle::new();
        let mut state = 7;
        for _ in 0..RANDOM_CASES {
            let digits = random_u64(&mut state) >> (lcg(&mut state) % 64);
            let scale = 10f64.powi((lcg(&mut state) % 24) as i32 - 12);
            let v = digits as f64 * scale;
            oracle.f64(v);
            oracle.f64(-v / 3.0);
        }
    }

    #[test]
    fn floats_match_display_on_powers_of_two_and_ten_and_their_neighbours() {
        let mut oracle = Oracle::new();
        let mut check_around = |bits: u64| {
            for b in [bits.wrapping_sub(1), bits, bits + 1] {
                oracle.f64(f64::from_bits(b));
                oracle.f64(-f64::from_bits(b));
            }
        };
        // 2^-1074 … 2^-1023 (subnormal), then 2^-1022 … 2^1023.
        for shift in 0..MANTISSA_BITS {
            check_around(1 << shift);
        }
        for exponent in 1..0x7ff_u64 {
            check_around(exponent << MANTISSA_BITS);
        }
        // 1e-330 (zero) … 1e310 (infinity).
        for k in -330..=310 {
            let v: f64 = format!("1e{k}").parse().expect("float literal");
            check_around(v.to_bits());
        }
    }

    #[test]
    fn floats_match_display_on_small_integers_and_thousandths() {
        let mut oracle = Oracle::new();
        for k in 0..20_000_u32 {
            oracle.f64(f64::from(k));
            oracle.f64(-f64::from(k));
            oracle.f64(f64::from(k) / 1000.0);
        }
    }

    #[test]
    fn floats_match_display_on_special_values() {
        let mut oracle = Oracle::new();
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            0.1,
            0.30000000000000004,
            0.00025,
            12.5,
            -4.0e20,
            1e21,
            1e22,
            123_456_789_012_345_680.0,
            9_007_199_254_740_993.0,
        ] {
            oracle.f64(v);
        }
    }

    /// The two shapes of an exact tie, where `Display` rounds up and
    /// Ryu's reference rounds half to even (to `…312` and `…562.2`).
    #[test]
    fn exact_ties_round_up_as_display_does() {
        let mut out = String::new();
        write_f64(2f64.powi(-25), &mut out);
        assert_eq!(out, "0.000000029802322387695313");
        out.clear();
        write_f64(f64::from_bits(0x4317_9085_685d_83c9), &mut out);
        assert_eq!(out, "1658206780088562.3");
    }

    #[test]
    fn integers_match_to_string() {
        let mut oracle = Oracle::new();
        let mut power = 1_u64;
        while let Some(next) = power.checked_mul(10) {
            for v in [power - 1, power, power + 1] {
                oracle.u64(v);
            }
            power = next;
        }
        for v in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            oracle.u64(v);
        }
        let mut state = 3;
        for _ in 0..RANDOM_CASES {
            // Every bit length, not mostly 20-digit values.
            oracle.u64(random_u64(&mut state) >> (lcg(&mut state) % 64));
        }
    }

    /// A non-negative integer of any size, in little-endian 64-bit limbs.
    struct Big(Vec<u64>);

    impl Big {
        fn pow5(i: usize) -> Big {
            let mut limbs = vec![1_u64];
            for _ in 0..i {
                let mut carry = 0_u128;
                for limb in &mut limbs {
                    let wide = u128::from(*limb) * 5 + carry;
                    *limb = wide as u64;
                    carry = wide >> 64;
                }
                if carry > 0 {
                    limbs.push(carry as u64);
                }
            }
            Big(limbs)
        }

        fn bits(&self) -> u32 {
            let top = self
                .0
                .iter()
                .rposition(|&limb| limb != 0)
                .expect("non-zero");
            64 * top as u32 + (64 - self.0[top].leading_zeros())
        }

        /// Bit `k`; zero below bit 0.
        fn bit(&self, k: i64) -> bool {
            k >= 0
                && self
                    .0
                    .get(k as usize / 64)
                    .is_some_and(|limb| limb >> (k % 64) & 1 == 1)
        }

        fn mul_u128(&self, x: u128) -> Big {
            let mut limbs = vec![0_u64; self.0.len() + 3];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0_u128;
                for (j, b) in [x as u64, (x >> 64) as u64].into_iter().enumerate() {
                    let wide = u128::from(a) * u128::from(b) + u128::from(limbs[i + j]) + carry;
                    limbs[i + j] = wide as u64;
                    carry = wide >> 64;
                }
                let mut k = i + 2;
                while carry > 0 {
                    let wide = u128::from(limbs[k]) + carry;
                    limbs[k] = wide as u64;
                    carry = wide >> 64;
                    k += 1;
                }
            }
            Big(limbs)
        }

        /// `self` against `2^j`.
        fn cmp_pow2(&self, j: u32) -> Ordering {
            match self.bits().cmp(&(j + 1)) {
                Ordering::Equal if (0..i64::from(j)).any(|k| self.bit(k)) => Ordering::Greater,
                order => order,
            }
        }
    }

    #[test]
    fn tables_match_their_bignum_definition() {
        for (i, &entry) in POW5_SPLIT.iter().enumerate() {
            // The top 125 bits of 5^i, zero-filled below when shorter.
            let p = Big::pow5(i);
            let low = i64::from(p.bits()) - i64::from(POW5_BITCOUNT as u32);
            let top = (0..POW5_BITCOUNT as u32)
                .filter(|&k| p.bit(low + i64::from(k)))
                .fold(0_u128, |acc, k| acc | 1 << k);
            assert_eq!(entry, top, "POW5_SPLIT[{i}]");
        }
        for (i, &entry) in POW5_INV_SPLIT.iter().enumerate() {
            // ⌊2^j / 5^i⌋ + 1, the quotient found bit by bit from the top.
            let p = Big::pow5(i);
            let j = p.bits() - 1 + POW5_INV_BITCOUNT as u32;
            let mut quotient = 0_u128;
            for bit in (0..128).rev() {
                let candidate = quotient | 1 << bit;
                if p.mul_u128(candidate).cmp_pow2(j) != Ordering::Greater {
                    quotient = candidate;
                }
            }
            assert_eq!(entry, quotient + 1, "POW5_INV_SPLIT[{i}]");
        }
    }
}
