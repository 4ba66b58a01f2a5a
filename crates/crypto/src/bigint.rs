//! Arbitrary-precision unsigned integers.
//!
//! A deliberately small big-integer implementation — just enough for
//! RSA key generation, signing and verification: addition, subtraction,
//! multiplication, division with remainder, modular exponentiation and
//! modular inverse. Limbs are `u64` stored little-endian; intermediate
//! products use `u128`.
//!
//! * Division is Knuth's Algorithm D (TAOCP vol. 2, §4.3.1): one
//!   quotient limb per step, estimated from the top two limbs of the
//!   normalized operands and corrected at most twice plus one add-back.
//! * Modular exponentiation has one path: Montgomery multiplication
//!   (the CIOS form of Koç, Acar and Kaliski) with a fixed 4-bit
//!   window. It needs an odd modulus, which every RSA and Miller–Rabin
//!   modulus is. The working buffers are allocated once per
//!   exponentiation, not once per product.
//!
//! Not constant-time; see the crate-level security disclaimer.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs,
/// normalized: no trailing zero limbs).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

/// Bits per exponent window in [`BigUint::modpow`].
const WINDOW_BITS: usize = 4;

impl BigUint {
    /// The value 0 (empty limb vector).
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        Self::from_limbs(vec![v])
    }

    fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Packs little-endian 32-bit words into limbs.
    fn from_words(words: &[u32]) -> Self {
        Self::from_limbs(
            words
                .chunks(2)
                .map(|w| w[0] as u64 | (*w.get(1).unwrap_or(&0) as u64) << 32)
                .collect(),
        )
    }

    /// Constructs from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        Self::from_limbs(
            bytes
                .rchunks(8)
                .map(|chunk| chunk.iter().fold(0u64, |limb, &b| (limb << 8) | b as u64))
                .collect(),
        )
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let nz = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..nz);
        out
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// The value as a `u64`, or `None` if it does not fit.
    pub(crate) fn to_u64(&self) -> Option<u64> {
        match self.limbs[..] {
            [] => Some(0),
            [v] => Some(v),
            _ => None,
        }
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (false beyond the top bit).
    pub fn bit(&self, i: usize) -> bool {
        self.limbs
            .get(i / 64)
            .is_some_and(|limb| (limb >> (i % 64)) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = long.limbs.clone();
        if add_in_place(&mut out, &short.limbs) {
            out.push(1);
        }
        Self::from_limbs(out)
    }

    /// `self - other`; panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(other.limbs.len() <= self.limbs.len(), "BigUint underflow");
        let mut out = self.limbs.clone();
        let borrow = sub_in_place(&mut out, &other.limbs);
        assert!(!borrow, "BigUint underflow");
        Self::from_limbs(out)
    }

    /// Schoolbook multiplication `self * other`.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                (out[i + j], carry) = mac(out[i + j], a, b, carry);
            }
            out[i + other.limbs.len()] = carry;
        }
        Self::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; bits / 64];
        out.extend_from_slice(&self.limbs);
        out.push(0);
        shl_in_place(&mut out[bits / 64..], (bits % 64) as u32);
        Self::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut out = self.limbs[limb_shift..].to_vec();
        shr_in_place(&mut out, (bits % 64) as u32);
        Self::from_limbs(out)
    }

    /// Total ordering comparison.
    pub fn cmp_to(&self, other: &BigUint) -> Ordering {
        self.limbs
            .len()
            .cmp(&other.limbs.len())
            .then_with(|| cmp_limbs(&self.limbs, &other.limbs))
    }

    /// `self mod d` for a one-limb divisor: one `u128` remainder per
    /// limb, no allocation.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub(crate) fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let r = self
            .limbs
            .iter()
            .rev()
            .fold(0u128, |r, &limb| (r << 64 | limb as u128) % d as u128);
        r as u64
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// Knuth's Algorithm D: O(limbs(quotient) · limbs(divisor)) limb
    /// operations.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp_to(divisor) == Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        if let [d] = divisor.limbs[..] {
            let mut q = self.limbs.clone();
            let r = div_rem_limb(&mut q, d);
            return (Self::from_limbs(q), BigUint::from_u64(r));
        }
        // D1: normalize so the divisor's top limb has its high bit set.
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;
        let shift = divisor.limbs[n - 1].leading_zeros();
        let mut v = divisor.limbs.clone();
        shl_in_place(&mut v, shift);
        let mut u = self.limbs.clone();
        u.push(0);
        shl_in_place(&mut u, shift);
        let (v1, v2) = (v[n - 1] as u128, v[n - 2] as u128);
        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // D3: estimate q̂ from the top two limbs and correct it with
            // the third; afterwards q̂ is exact or one too large.
            let top = (u[j + n] as u128) << 64 | u[j + n - 1] as u128;
            let mut qhat = top / v1;
            let mut rhat = top % v1;
            while qhat > u64::MAX as u128 || qhat * v2 > (rhat << 64 | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v1;
                if rhat > u64::MAX as u128 {
                    break;
                }
            }
            // D4: u[j..=j+n] -= q̂·v.
            let window = &mut u[j..=j + n];
            let mut carry = 0u64;
            let mut borrow = false;
            for (ui, &vi) in window.iter_mut().zip(&v) {
                let p = qhat * vi as u128 + carry as u128;
                carry = (p >> 64) as u64;
                let (d, b1) = ui.overflowing_sub(p as u64);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                *ui = d;
                borrow = b1 | b2;
            }
            let (d, b1) = window[n].overflowing_sub(carry);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            window[n] = d;
            // D6: q̂ was one too large; add v back.
            if b1 | b2 {
                qhat -= 1;
                let carry = add_in_place(&mut window[..n], &v);
                window[n] = window[n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }
        // D8: unnormalize the remainder.
        u.truncate(n);
        shr_in_place(&mut u, shift);
        (Self::from_limbs(q), Self::from_limbs(u))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// Modular exponentiation `self^exp mod m`: Montgomery
    /// multiplication with a fixed 4-bit exponent window.
    ///
    /// # Panics
    /// Panics if `m` is even (zero included): Montgomery reduction
    /// needs `m` coprime to the limb base 2⁶⁴.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        let mont = Montgomery::new(m);
        mont.value(&mont.pow(&mont.residue(self), exp))
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a.cmp_to(&b) == Ordering::Greater {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                return a.shl(shift);
            }
        }
    }

    /// Modular inverse `self⁻¹ mod m`, or `None` if not coprime.
    ///
    /// Extended Euclid tracking only the `t` coefficient, with a sign
    /// flag to stay within unsigned arithmetic.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let a = self.rem(m);
        if a.is_zero() {
            return None;
        }
        // Invariant: t_cur * a ≡ r_cur (mod m)  (up to sign neg_cur)
        let mut r_prev = m.clone();
        let mut r_cur = a;
        let mut t_prev = BigUint::zero();
        let mut t_cur = BigUint::one();
        let mut neg_prev = false;
        let mut neg_cur = false;
        while !r_cur.is_zero() {
            let (q, r_next) = r_prev.div_rem(&r_cur);
            // t_next = t_prev - q * t_cur   (signed)
            let qt = q.mul(&t_cur);
            let (t_next, neg_next) = signed_sub(&t_prev, neg_prev, &qt, neg_cur);
            r_prev = r_cur;
            r_cur = r_next;
            t_prev = t_cur;
            t_cur = t_next;
            neg_prev = neg_cur;
            neg_cur = neg_next;
        }
        if !r_prev.is_one() {
            return None; // not coprime
        }
        let inv = if neg_prev {
            m.sub(&t_prev.rem(m))
        } else {
            t_prev.rem(m)
        };
        Some(inv.rem(m))
    }

    /// A uniformly random integer with exactly `bits` bits (top bit set).
    ///
    /// Draws one `u32` per 32 bits, so a seeded generator yields the
    /// same value whatever the limb width.
    pub fn random_bits<R: rand::Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0);
        let mut words = random_words(rng, bits);
        let top_bits = bits - (words.len() - 1) * 32;
        *words.last_mut().unwrap() |= 1 << (top_bits - 1); // force exact bit length
        Self::from_words(&words)
    }

    /// A uniformly random integer in `[0, bound)` via rejection sampling.
    pub fn random_below<R: rand::Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero());
        loop {
            let candidate = Self::from_words(&random_words(rng, bound.bit_len()));
            if candidate.cmp_to(bound) == Ordering::Less {
                return candidate;
            }
        }
    }
}

/// `bits.div_ceil(32)` random little-endian words, the top one masked
/// to the bits that remain.
fn random_words<R: rand::Rng + ?Sized>(rng: &mut R, bits: usize) -> Vec<u32> {
    use rand::RngExt as _;
    let n = bits.div_ceil(32);
    let mut words: Vec<u32> = (0..n).map(|_| rng.random()).collect();
    let top_bits = bits - (n - 1) * 32;
    if top_bits < 32 {
        words[n - 1] &= (1u32 << top_bits) - 1;
    }
    words
}

/// `acc + a·b + carry` as `(low, high)` limbs; cannot overflow.
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let v = acc as u128 + a as u128 * b as u128 + carry as u128;
    (v as u64, (v >> 64) as u64)
}

/// Compares equal-length limb slices.
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    a.iter().rev().cmp(b.iter().rev())
}

/// `a += b` for `b` no longer than `a`; returns the carry out of `a`.
fn add_in_place(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (i, ai) in a.iter_mut().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (s, c1) = ai.overflowing_add(bi);
        let (s, c2) = s.overflowing_add(carry as u64);
        *ai = s;
        carry = c1 | c2;
    }
    carry
}

/// `a -= b` for `b` no longer than `a`; returns the borrow out of `a`.
fn sub_in_place(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (i, ai) in a.iter_mut().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d, b1) = ai.overflowing_sub(bi);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *ai = d;
        borrow = b1 | b2;
    }
    borrow
}

/// Shifts `a` left by `s < 64` bits in place; bits shifted out of the
/// top limb are dropped.
fn shl_in_place(a: &mut [u64], s: u32) {
    if s == 0 {
        return;
    }
    for i in (1..a.len()).rev() {
        a[i] = a[i] << s | a[i - 1] >> (64 - s);
    }
    if let Some(lo) = a.first_mut() {
        *lo <<= s;
    }
}

/// Shifts `a` right by `s < 64` bits in place.
fn shr_in_place(a: &mut [u64], s: u32) {
    if s == 0 {
        return;
    }
    for i in 0..a.len() {
        let hi = a.get(i + 1).map_or(0, |h| h << (64 - s));
        a[i] = a[i] >> s | hi;
    }
}

/// Divides `a` in place by the one-limb `d`; returns the remainder.
fn div_rem_limb(a: &mut [u64], d: u64) -> u64 {
    assert!(d != 0, "division by zero");
    let mut r = 0u128;
    for limb in a.iter_mut().rev() {
        let cur = r << 64 | *limb as u128;
        *limb = (cur / d as u128) as u64;
        r = cur % d as u128;
    }
    r as u64
}

/// Montgomery arithmetic modulo one odd modulus `n` of `s` limbs, with
/// `R = 2^(64·s)`. Values in Montgomery form are `s`-limb slices
/// holding `x·R mod n`.
pub(crate) struct Montgomery {
    modulus: BigUint,
    /// `−n⁻¹ mod 2⁶⁴`.
    n0: u64,
    /// `R² mod n`, the factor that maps into Montgomery form.
    r2: Vec<u64>,
}

impl Montgomery {
    /// The context for modulus `m`.
    ///
    /// # Panics
    /// Panics if `m` is even (zero included).
    pub(crate) fn new(m: &BigUint) -> Self {
        assert!(!m.is_even(), "Montgomery modulus must be odd");
        let s = m.limbs.len();
        // Newton's iteration doubles the correct low bits of n⁻¹ each
        // step: 1 → 2 → … → 64 bits (n·1 ≡ 1 mod 2 since n is odd).
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m.limbs[0].wrapping_mul(inv)));
        }
        let mut r2 = BigUint::one().shl(128 * s).rem(m).limbs;
        r2.resize(s, 0);
        Montgomery {
            modulus: m.clone(),
            n0: inv.wrapping_neg(),
            r2,
        }
    }

    /// Number of limbs per residue.
    fn limbs(&self) -> usize {
        self.modulus.limbs.len()
    }

    /// CIOS Montgomery product: `t[..s] = a·b·R⁻¹ mod n` for `a, b < n`.
    /// `t` is scratch of `s + 2` limbs; limbs past `s` are left unspecified.
    fn mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let n = &self.modulus.limbs[..];
        let s = n.len();
        t.fill(0);
        for &ai in a {
            // t += ai·b
            let mut c = 0u64;
            for j in 0..s {
                (t[j], c) = mac(t[j], ai, b[j], c);
            }
            let (lo, hi) = t[s].overflowing_add(c);
            t[s] = lo;
            t[s + 1] = hi as u64;
            // t = (t + m·n) / 2⁶⁴ with m chosen so the low limb vanishes.
            let m = t[0].wrapping_mul(self.n0);
            let (_, mut c) = mac(t[0], m, n[0], 0);
            for j in 1..s {
                (t[j - 1], c) = mac(t[j], m, n[j], c);
            }
            let (lo, hi) = t[s].overflowing_add(c);
            t[s - 1] = lo;
            t[s] = t[s + 1] + hi as u64;
        }
        // t < 2n: one conditional subtraction lands in [0, n).
        if t[s] != 0 || cmp_limbs(&t[..s], n) != Ordering::Less {
            sub_in_place(&mut t[..s], n);
        }
    }

    /// `a` in Montgomery form (`a` is reduced first when `a ≥ n`).
    pub(crate) fn residue(&self, a: &BigUint) -> Vec<u64> {
        let s = self.limbs();
        let mut x = if a.cmp_to(&self.modulus) == Ordering::Less {
            a.limbs.clone()
        } else {
            a.rem(&self.modulus).limbs
        };
        x.resize(s, 0);
        let mut t = vec![0u64; s + 2];
        self.mul(&x, &self.r2, &mut t);
        t.truncate(s);
        t
    }

    /// The value of the Montgomery residue `a`.
    pub(crate) fn value(&self, a: &[u64]) -> BigUint {
        let s = self.limbs();
        let mut one = vec![0u64; s];
        one[0] = 1;
        let mut t = vec![0u64; s + 2];
        self.mul(a, &one, &mut t);
        t.truncate(s);
        BigUint::from_limbs(t)
    }

    /// `1` in Montgomery form (`R mod n`).
    pub(crate) fn one(&self) -> Vec<u64> {
        self.residue(&BigUint::one())
    }

    /// `a ← a²` in Montgomery form.
    pub(crate) fn square(&self, a: &mut [u64]) {
        let mut t = vec![0u64; self.limbs() + 2];
        self.mul(a, a, &mut t);
        a.copy_from_slice(&t[..a.len()]);
    }

    /// `base^exp` with `base` and the result in Montgomery form: a
    /// fixed 4-bit window over `exp`, most significant window first.
    /// The power table stops at the largest window digit `exp` uses, so
    /// a short exponent such as 65537 costs no unused table entries.
    pub(crate) fn pow(&self, base: &[u64], exp: &BigUint) -> Vec<u64> {
        let s = self.limbs();
        let digit = |w: usize| {
            let bit = w * WINDOW_BITS;
            (exp.limbs[bit / 64] >> (bit % 64)) as usize & ((1 << WINDOW_BITS) - 1)
        };
        let windows = exp.bit_len().div_ceil(WINDOW_BITS);
        let top = (0..windows).map(digit).max().unwrap_or(0);
        let mut t = vec![0u64; s + 2];
        let mut table = vec![self.one()];
        for k in 1..=top {
            self.mul(&table[k - 1], base, &mut t);
            table.push(t[..s].to_vec());
        }
        let mut acc = table[0].clone();
        for w in (0..windows).rev() {
            if w + 1 < windows {
                for _ in 0..WINDOW_BITS {
                    self.mul(&acc, &acc, &mut t);
                    acc.copy_from_slice(&t[..s]);
                }
            }
            let d = digit(w);
            if d != 0 {
                self.mul(&acc, &table[d], &mut t);
                acc.copy_from_slice(&t[..s]);
            }
        }
        acc
    }
}

/// Computes `a·(-1)^neg_a - b·(-1)^neg_b` returning `(magnitude, sign)`.
fn signed_sub(a: &BigUint, neg_a: bool, b: &BigUint, neg_b: bool) -> (BigUint, bool) {
    match (neg_a, neg_b) {
        (false, true) => (a.add(b), false), //  a - (-b) = a + b
        (true, false) => (a.add(b), true),  // -a - b    = -(a + b)
        (false, false) => match a.cmp_to(b) {
            Ordering::Less => (b.sub(a), true),
            _ => (a.sub(b), false),
        },
        (true, true) => match b.cmp_to(a) {
            // -a + b
            Ordering::Less => (a.sub(b), true),
            _ => (b.sub(a), false),
        },
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "BigUint(0)");
        }
        write!(f, "BigUint(0x")?;
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        write!(f, ")")
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_to(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    /// Bit-serial shift-and-subtract long division: the reference that
    /// Algorithm D is checked against.
    fn div_rem_reference(a: &BigUint, d: &BigUint) -> (BigUint, BigUint) {
        assert!(!d.is_zero());
        if a < d {
            return (BigUint::zero(), a.clone());
        }
        let shift = a.bit_len() - d.bit_len();
        let mut rem = a.clone();
        let mut quot = BigUint::zero();
        for s in (0..=shift).rev() {
            let ds = d.shl(s);
            if rem >= ds {
                rem = rem.sub(&ds);
                quot = quot.add(&BigUint::one().shl(s));
            }
        }
        (quot, rem)
    }

    /// Right-to-left square-and-multiply with plain products and
    /// remainders: the reference that the Montgomery path is checked
    /// against (any modulus, odd or even).
    fn modpow_reference(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut result = BigUint::one().rem(m);
        let mut base = base.rem(m);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul(&base).rem(m);
            }
            base = base.mul(&base).rem(m);
        }
        result
    }

    /// A random odd modulus of exactly `bits` bits.
    fn odd_modulus(rng: &mut StdRng, bits: usize) -> BigUint {
        let m = BigUint::random_bits(rng, bits);
        if m.is_even() {
            m.add(&BigUint::one())
        } else {
            m
        }
    }

    /// Random operands with structured limbs (0, 1, all-ones, top bit
    /// only) mixed in, which stress carries and the quotient estimate.
    fn structured(rng: &mut StdRng, limbs: usize) -> BigUint {
        BigUint::from_limbs(
            (0..limbs)
                .map(|_| match rng.random_range(0..6u32) {
                    0 => 0,
                    1 => 1,
                    2 => u64::MAX,
                    3 => 1 << 63,
                    _ => rng.random(),
                })
                .collect(),
        )
    }

    fn check_div_rem(a: &BigUint, d: &BigUint) {
        let (q, r) = a.div_rem(d);
        assert!(r < *d, "remainder {r:?} not below divisor {d:?}");
        assert_eq!(q.mul(d).add(&r), *a, "q·d + r ≠ a for a={a:?} d={d:?}");
        assert_eq!((q, r), div_rem_reference(a, d), "a={a:?} d={d:?}");
    }

    #[test]
    fn from_to_bytes_round_trip() {
        let cases: [&[u8]; 4] = [&[], &[1], &[0xde, 0xad, 0xbe, 0xef, 0x42], &[0xff; 17]];
        for bytes in cases {
            let n = BigUint::from_bytes_be(bytes);
            let back = n.to_bytes_be();
            // Leading zeros are stripped, so compare the numeric values.
            assert_eq!(BigUint::from_bytes_be(&back), n);
        }
        let bytes: Vec<u8> = (1..=23).collect();
        assert_eq!(BigUint::from_bytes_be(&bytes).to_bytes_be(), bytes);
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        assert_eq!(
            BigUint::from_bytes_be(&[0, 0, 0, 5]),
            BigUint::from_bytes_be(&[5])
        );
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(b(123).add(&b(877)), b(1000));
        assert_eq!(b(1000).sub(&b(877)), b(123));
        assert_eq!(b(0).add(&b(0)), b(0));
    }

    #[test]
    fn add_carries_across_limbs() {
        let x = b(u64::MAX);
        let one = b(1);
        let sum = x.add(&one);
        assert_eq!(sum.bit_len(), 65);
        assert_eq!(sum.sub(&one), x);
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        let _ = b(1).sub(&b(2));
    }

    #[test]
    #[should_panic]
    fn sub_underflow_across_limbs_panics() {
        let _ = b(u64::MAX).sub(&BigUint::one().shl(64));
    }

    #[test]
    fn mul_matches_u128() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let x: u64 = rng.random();
            let y: u64 = rng.random();
            let prod = (x as u128) * (y as u128);
            let expected = BigUint::from_bytes_be(&prod.to_be_bytes());
            assert_eq!(b(x).mul(&b(y)), expected);
        }
    }

    #[test]
    fn div_rem_matches_u128() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let x: u128 = ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128;
            let y: u128 = if rng.random() {
                rng.random_range(1..u64::MAX) as u128
            } else {
                x >> rng.random_range(1..64u32) | 1
            };
            let xb = BigUint::from_bytes_be(&x.to_be_bytes());
            let yb = BigUint::from_bytes_be(&y.to_be_bytes());
            let (qb, rb) = xb.div_rem(&yb);
            assert_eq!(qb, BigUint::from_bytes_be(&(x / y).to_be_bytes()));
            assert_eq!(rb, BigUint::from_bytes_be(&(x % y).to_be_bytes()));
        }
    }

    #[test]
    #[should_panic]
    fn div_by_zero_panics() {
        let _ = b(5).div_rem(&BigUint::zero());
    }

    #[test]
    fn div_rem_matches_reference_across_divisor_sizes() {
        let mut rng = StdRng::seed_from_u64(14);
        for divisor_limbs in [1usize, 2, 3, 5, 9] {
            for _ in 0..40 {
                let d = structured(&mut rng, divisor_limbs);
                if d.is_zero() {
                    continue;
                }
                let extra = rng.random_range(0..4usize);
                let a = structured(&mut rng, divisor_limbs + extra);
                check_div_rem(&a, &d);
                // Dividends just below, at and above multiples of d.
                let k = structured(&mut rng, extra + 1);
                let kd = k.mul(&d);
                check_div_rem(&kd, &d);
                check_div_rem(&kd.add(&d.sub(&BigUint::one())), &d);
                if !kd.is_zero() {
                    check_div_rem(&kd.sub(&BigUint::one()), &d);
                }
            }
        }
    }

    #[test]
    fn div_rem_normalization_edges() {
        let mut rng = StdRng::seed_from_u64(15);
        let top_limbs = [1u64, 2, 3, (1 << 63) - 1, 1 << 63, u64::MAX];
        for &top in &top_limbs {
            for n in [2usize, 3, 4] {
                // Divisor top limb with every normalization shift from
                // 63 (top = 1) to 0 (top bit already set).
                let mut dl: Vec<u64> = (0..n - 1).map(|_| rng.random()).collect();
                dl.push(top);
                let d = BigUint::from_limbs(dl.clone());
                for a in [
                    structured(&mut rng, n + 2),
                    BigUint::from_limbs(vec![u64::MAX; n + 2]),
                    d.shl(64).sub(&BigUint::one()),
                    d.mul(&d),
                ] {
                    check_div_rem(&a, &d);
                }
            }
        }
        // q̂ overestimates by one and needs the add-back step (the
        // 64-bit analogue of Hacker's Delight's divmnu add-back case).
        let a = BigUint::from_limbs(vec![0, 0, 1 << 63, (1 << 63) - 1]);
        let d = BigUint::from_limbs(vec![1, 0, 1 << 63]);
        check_div_rem(&a, &d);
        // Equal, smaller and one-limb operands.
        check_div_rem(&d, &d);
        check_div_rem(&d.sub(&BigUint::one()), &d);
        check_div_rem(&a, &b(1));
        check_div_rem(&a, &b(u64::MAX));
    }

    #[test]
    fn rem_u64_matches_div_rem() {
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..100 {
            let limbs = rng.random_range(0..6usize);
            let a = structured(&mut rng, limbs);
            let d = rng.random_range(1..u64::MAX);
            assert_eq!(b(a.rem_u64(d)), a.rem(&b(d)));
        }
    }

    #[test]
    fn shifts() {
        let x = b(0b1011);
        assert_eq!(x.shl(3), b(0b1011000));
        assert_eq!(x.shr(2), b(0b10));
        assert_eq!(x.shl(100).shr(100), x);
        assert_eq!(x.shl(64).shr(64), x);
        assert_eq!(b(u64::MAX).shl(1).shr(1), b(u64::MAX));
        assert_eq!(BigUint::zero().shl(64), BigUint::zero());
        assert_eq!(b(1).shr(1), BigUint::zero());
    }

    #[test]
    fn bit_len_and_bit() {
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(b(1).bit_len(), 1);
        assert_eq!(b(255).bit_len(), 8);
        assert_eq!(b(256).bit_len(), 9);
        let x = b(0b101);
        assert!(x.bit(0) && !x.bit(1) && x.bit(2) && !x.bit(3));
        assert!(!x.bit(1000));
        assert!(BigUint::one().shl(64).bit(64));
    }

    #[test]
    fn modpow_small_cases() {
        // 3^5 mod 7 = 243 mod 7 = 5
        assert_eq!(b(3).modpow(&b(5), &b(7)), b(5));
        // Fermat: a^(p-1) ≡ 1 mod p
        let p = b(1_000_000_007);
        for a in [2u64, 3, 10, 999] {
            assert_eq!(b(a).modpow(&p.sub(&b(1)), &p), b(1));
        }
        // exponent 0
        assert_eq!(b(12345).modpow(&b(0), &b(97)), b(1));
        // modulus 1
        assert_eq!(b(5).modpow(&b(5), &b(1)), b(0));
        // base 0 and base ≡ 0
        assert_eq!(b(0).modpow(&b(3), &b(97)), b(0));
        assert_eq!(b(194).modpow(&b(3), &b(97)), b(0));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn modpow_even_modulus_panics() {
        let _ = b(3).modpow(&b(5), &b(8));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn modpow_zero_modulus_panics() {
        let _ = b(3).modpow(&b(5), &BigUint::zero());
    }

    #[test]
    fn modpow_large_random_consistency() {
        // (a^e1)^e2 == a^(e1*e2) mod m
        let mut rng = StdRng::seed_from_u64(9);
        let m = odd_modulus(&mut rng, 128);
        let a = BigUint::random_bits(&mut rng, 100);
        let e1 = b(rng.random_range(2..1000));
        let e2 = b(rng.random_range(2..1000));
        let lhs = a.modpow(&e1, &m).modpow(&e2, &m);
        let rhs = a.modpow(&e1.mul(&e2), &m);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn modpow_matches_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        for bits in [64usize, 65, 127, 128, 192, 521, 1024, 2048] {
            let m = odd_modulus(&mut rng, bits);
            let ones = |k: usize| BigUint::one().shl(k).sub(&BigUint::one());
            // The full-size exponents cost the reference a few seconds
            // in a debug build above 1024 bits; short ones cover the
            // window logic there as well.
            let full = bits <= 1024;
            let mut exps = vec![b(0), b(1), b(2), b(65537), ones(64)];
            if full {
                exps.push(ones(bits));
                exps.push(BigUint::random_bits(&mut rng, bits + 70));
            } else {
                exps.push(BigUint::random_bits(&mut rng, 300));
            }
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                m.sub(&BigUint::one()),
                BigUint::random_below(&mut rng, &m),
                // Bases at or above the modulus are reduced first.
                m.clone(),
                m.add(&BigUint::random_bits(&mut rng, bits + 5)),
            ];
            for e in &exps {
                for base in &bases {
                    if !full && (base.is_zero() || base.is_one()) {
                        continue;
                    }
                    assert_eq!(
                        base.modpow(e, &m),
                        modpow_reference(base, e, &m),
                        "bits={bits} base={base:?} e={e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn montgomery_square_matches_modpow() {
        let mut rng = StdRng::seed_from_u64(18);
        let m = odd_modulus(&mut rng, 200);
        let mont = Montgomery::new(&m);
        let a = BigUint::random_below(&mut rng, &m);
        let mut x = mont.residue(&a);
        for k in 1..6u32 {
            mont.square(&mut x);
            assert_eq!(mont.value(&x), a.modpow(&b(1 << k), &m));
        }
        assert_eq!(mont.value(&mont.one()), BigUint::one());
    }

    #[test]
    fn gcd_small() {
        assert_eq!(b(12).gcd(&b(18)), b(6));
        assert_eq!(b(17).gcd(&b(31)), b(1));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(5).gcd(&b(0)), b(5));
        assert_eq!(b(48).gcd(&b(64)), b(16));
    }

    #[test]
    fn modinv_basic() {
        // 3 * 5 = 15 ≡ 1 mod 7
        assert_eq!(b(3).modinv(&b(7)), Some(b(5)));
        // No inverse when not coprime.
        assert_eq!(b(6).modinv(&b(9)), None);
        assert_eq!(b(0).modinv(&b(7)), None);
    }

    #[test]
    fn modinv_random_verification() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = b(1_000_000_007); // prime
        for _ in 0..100 {
            let a = b(rng.random_range(1..1_000_000_006));
            let inv = a.modinv(&m).expect("prime modulus ⇒ inverse exists");
            assert_eq!(a.mul(&inv).rem(&m), b(1));
        }
    }

    #[test]
    fn modinv_large() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = BigUint::random_bits(&mut rng, 256);
        for _ in 0..20 {
            let a = BigUint::random_below(&mut rng, &m);
            if a.is_zero() || !a.gcd(&m).is_one() {
                continue;
            }
            let inv = a.modinv(&m).unwrap();
            assert_eq!(a.mul(&inv).rem(&m), BigUint::one());
        }
    }

    #[test]
    fn random_bits_exact_length() {
        let mut rng = StdRng::seed_from_u64(12);
        for bits in [1usize, 31, 32, 33, 64, 100, 257] {
            let n = BigUint::random_bits(&mut rng, bits);
            assert_eq!(n.bit_len(), bits);
        }
    }

    #[test]
    fn random_bits_draws_u32_words_little_endian() {
        // One u32 per 32 bits, lowest word first: the draw order that
        // keeps seeded keys stable.
        let mut rng = StdRng::seed_from_u64(19);
        let words: Vec<u32> = (0..3).map(|_| rng.random()).collect();
        let expected = BigUint::from_u64(words[0] as u64 | (words[1] as u64) << 32)
            .add(&b((words[2] & 0xFFFF | 0x8000) as u64).shl(64));
        let mut rng = StdRng::seed_from_u64(19);
        assert_eq!(BigUint::random_bits(&mut rng, 80), expected);
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(13);
        let bound = b(1000);
        for _ in 0..200 {
            let n = BigUint::random_below(&mut rng, &bound);
            assert!(n.cmp_to(&bound) == Ordering::Less);
        }
    }

    #[test]
    fn mul_known_large_vector() {
        // (2^128 − 1)² = 2^256 − 2^129 + 1.
        let x = BigUint::from_bytes_be(&[0xFF; 16]);
        let sq = x.mul(&x);
        let expected = BigUint::one()
            .shl(256)
            .sub(&BigUint::one().shl(129))
            .add(&BigUint::one());
        assert_eq!(sq, expected);
    }

    #[test]
    fn div_rem_reconstructs_large_operands() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..25 {
            let a = BigUint::random_bits(&mut rng, 300);
            let b = BigUint::random_bits(&mut rng, 140);
            let (q, r) = a.div_rem(&b);
            assert!(r < b);
            assert_eq!(q.mul(&b).add(&r), a);
        }
    }

    #[test]
    fn ordering_impls() {
        assert!(b(3) < b(5));
        assert!(b(5) > b(3));
        assert!(b(u64::MAX).add(&b(1)) > b(u64::MAX));
    }

    #[test]
    fn debug_prints_hex() {
        assert_eq!(format!("{:?}", BigUint::zero()), "BigUint(0)");
        assert_eq!(
            format!("{:?}", BigUint::one().shl(64).add(&b(0xab))),
            "BigUint(0x100000000000000ab)"
        );
    }
}
