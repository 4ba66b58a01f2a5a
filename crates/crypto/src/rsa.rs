//! RSA signatures over message digests.
//!
//! The data owner signs the root of each authenticated data structure;
//! clients verify roots against the owner's public key (Figure 2 of the
//! paper). The scheme is textbook RSA with deterministic PKCS#1-v1.5
//! style padding of a SHA-256 digest.
//!
//! Signing uses the Chinese remainder theorem: two half-size
//! exponentiations mod p and mod q, recombined with Garner's formula,
//! then checked against the public exponent before the signature
//! leaves [`RsaKeyPair::sign`]. The result equals `pad(m)^d mod n`, so
//! signatures are byte-for-byte those of the plain formula. With the
//! Montgomery arithmetic of [`crate::bigint`], a 1024-bit key signs in
//! under a millisecond and verifies in tens of microseconds.

use crate::bigint::BigUint;
use crate::digest::Digest;
use crate::prime::random_prime;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Public RSA exponent (F4).
const PUBLIC_EXPONENT: u64 = 65537;

/// Process-wide count of private-key signing operations. Snapshot
/// cold-start tests assert this stays flat across a load (a provider
/// restarting from disk must only *verify*, never re-sign). A
/// measurement that must not see other threads' keys reads
/// [`RsaKeyPair::signing_ops`] instead.
static SIGN_OPS: AtomicU64 = AtomicU64::new(0);

/// Number of RSA signing operations performed by this process so far.
pub fn signing_ops() -> u64 {
    SIGN_OPS.load(Ordering::Relaxed)
}

/// Default modulus size in bits. Research-scale: large enough that the
/// arithmetic paths are exercised realistically, small enough that key
/// generation stays cheap inside debug-build test suites.
pub const DEFAULT_MODULUS_BITS: usize = 512;

/// An RSA public key `(n, e)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    modulus_bits: usize,
}

/// An RSA key pair. The private key is kept internal in CRT form.
///
/// Clones share one signing counter ([`RsaKeyPair::signing_ops`]).
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    p: BigUint,
    q: BigUint,
    /// `d mod (p − 1)`.
    dp: BigUint,
    /// `d mod (q − 1)`.
    dq: BigUint,
    /// `q⁻¹ mod p`.
    q_inv: BigUint,
    sign_ops: Arc<AtomicU64>,
}

/// A signature: the RSA-encrypted padded digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaSignature(Vec<u8>);

impl RsaSignature {
    /// Signature bytes (big-endian integer, at most modulus size).
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Size in bytes, as counted in proof-size experiments.
    pub fn size_bytes(&self) -> usize {
        self.0.len()
    }

    /// Reconstructs a signature from raw bytes (e.g. decoded proofs).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        RsaSignature(bytes)
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with the given modulus size.
    ///
    /// # Panics
    /// Panics if `modulus_bits < 64` (padding would not fit a digest —
    /// such keys are never meaningful here).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, modulus_bits: usize) -> Self {
        assert!(modulus_bits >= 64, "modulus too small");
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = random_prime(rng, modulus_bits / 2);
            let q = random_prime(rng, modulus_bits - modulus_bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let (p1, q1) = (p.sub(&BigUint::one()), q.sub(&BigUint::one()));
            let Some(d) = e.modinv(&p1.mul(&q1)) else {
                continue;
            };
            let q_inv = q.modinv(&p).expect("distinct primes are coprime");
            return RsaKeyPair {
                public: RsaPublicKey {
                    modulus_bits: n.bit_len(),
                    n,
                    e,
                },
                dp: d.rem(&p1),
                dq: d.rem(&q1),
                p,
                q,
                q_inv,
                sign_ops: Arc::default(),
            };
        }
    }

    /// Generates a key pair with [`DEFAULT_MODULUS_BITS`].
    pub fn generate_default<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::generate(rng, DEFAULT_MODULUS_BITS)
    }

    /// The public half of the key pair.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Signs a digest: `pad(digest)^d mod n`, computed by CRT.
    ///
    /// # Panics
    /// Panics if the CRT result fails its check against the public
    /// exponent (a fault in the arithmetic): a wrong signature is never
    /// returned, since it would also leak a factor of `n`.
    pub fn sign(&self, digest: &Digest) -> RsaSignature {
        SIGN_OPS.fetch_add(1, Ordering::Relaxed);
        self.sign_ops.fetch_add(1, Ordering::Relaxed);
        let m = pad_digest(digest, self.public.modulus_bits);
        let sp = m.modpow(&self.dp, &self.p);
        let sq = m.modpow(&self.dq, &self.q);
        // Garner: s = sq + q·(q⁻¹·(sp − sq) mod p).
        let sq_p = sq.rem(&self.p);
        let diff = if sp >= sq_p {
            sp.sub(&sq_p)
        } else {
            sp.add(&self.p).sub(&sq_p)
        };
        let h = self.q_inv.mul(&diff).rem(&self.p);
        let s = sq.add(&h.mul(&self.q));
        assert!(
            s.modpow(&self.public.e, &self.public.n) == m,
            "RSA-CRT signature failed its public-exponent check"
        );
        RsaSignature(s.to_bytes_be())
    }

    /// Signing operations performed with this key pair or any of its
    /// clones. Unlike the process-wide [`signing_ops`], other keys
    /// signing on other threads do not move it.
    pub fn signing_ops(&self) -> u64 {
        self.sign_ops.load(Ordering::Relaxed)
    }
}

impl RsaPublicKey {
    /// Verifies that `sig` is a valid signature on `digest`.
    pub fn verify(&self, digest: &Digest, sig: &RsaSignature) -> bool {
        let s = BigUint::from_bytes_be(&sig.0);
        if s.cmp_to(&self.n) != std::cmp::Ordering::Less {
            return false;
        }
        let m = s.modpow(&self.e, &self.n);
        m == pad_digest(digest, self.modulus_bits)
    }

    /// Modulus size in bits.
    pub fn modulus_bits(&self) -> usize {
        self.modulus_bits
    }

    /// Canonical encoding for persistence:
    /// `modulus_bits u32 LE ∘ n_len u32 LE ∘ n BE ∘ e_len u32 LE ∘ e BE`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(12 + n.len() + e.len());
        out.extend_from_slice(&(self.modulus_bits as u32).to_le_bytes());
        out.extend_from_slice(&(n.len() as u32).to_le_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_le_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Inverse of [`RsaPublicKey::to_bytes`]. Returns `None` on any
    /// structural mismatch (truncation, trailing bytes, zero modulus)
    /// and on an even modulus: no RSA modulus is even, and
    /// [`RsaPublicKey::verify`] relies on `n` being odd.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let take_u32 = |b: &[u8], at: usize| -> Option<u32> {
            Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
        };
        let modulus_bits = take_u32(bytes, 0)? as usize;
        let n_len = take_u32(bytes, 4)? as usize;
        let n_bytes = bytes.get(8..8 + n_len)?;
        let e_at = 8 + n_len;
        let e_len = take_u32(bytes, e_at)? as usize;
        let e_bytes = bytes.get(e_at + 4..e_at + 4 + e_len)?;
        if bytes.len() != e_at + 4 + e_len {
            return None;
        }
        let n = BigUint::from_bytes_be(n_bytes);
        let e = BigUint::from_bytes_be(e_bytes);
        if n.bit_len() != modulus_bits || modulus_bits < 64 || n.is_even() {
            return None;
        }
        Some(RsaPublicKey { n, e, modulus_bits })
    }
}

/// Deterministic PKCS#1-v1.5-style padding:
/// `0x00 0x01 0xFF…0xFF 0x00 <digest>`.
///
/// For moduli smaller than 35 bytes the digest is truncated to fit —
/// acceptable for research-scale keys (the truncated prefix is still
/// collision-resistant at the key's own security level).
fn pad_digest(digest: &Digest, modulus_bits: usize) -> BigUint {
    let k = modulus_bits.div_ceil(8); // modulus size in bytes
    let digest_len = (k - 3).min(32); // header is 0x00 0x01 … 0x00
    let mut em = vec![0xFFu8; k];
    em[0] = 0x00;
    em[1] = 0x01;
    let ps_end = k - digest_len - 1;
    em[ps_end] = 0x00;
    em[ps_end + 1..].copy_from_slice(&digest.as_bytes()[..digest_len]);
    BigUint::from_bytes_be(&em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::hash_bytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(&mut rng, 256)
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = keypair(1);
        let d = hash_bytes(b"merkle root");
        let sig = kp.sign(&d);
        assert!(kp.public_key().verify(&d, &sig));
    }

    #[test]
    fn verify_rejects_wrong_digest() {
        let kp = keypair(2);
        let sig = kp.sign(&hash_bytes(b"authentic"));
        assert!(!kp.public_key().verify(&hash_bytes(b"forged"), &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = keypair(3);
        let d = hash_bytes(b"data");
        let sig = kp.sign(&d);
        let mut bad = sig.as_bytes().to_vec();
        bad[0] ^= 0x01;
        assert!(!kp.public_key().verify(&d, &RsaSignature::from_bytes(bad)));
    }

    #[test]
    fn verify_rejects_signature_from_other_key() {
        let kp1 = keypair(4);
        let kp2 = keypair(5);
        let d = hash_bytes(b"data");
        let sig = kp1.sign(&d);
        assert!(!kp2.public_key().verify(&d, &sig));
    }

    #[test]
    fn verify_rejects_oversized_signature_value() {
        let kp = keypair(6);
        let d = hash_bytes(b"data");
        // A "signature" numerically ≥ n must be rejected outright.
        let huge = vec![0xFF; 64];
        assert!(!kp.public_key().verify(&d, &RsaSignature::from_bytes(huge)));
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = keypair(7);
        let d = hash_bytes(b"data");
        assert_eq!(kp.sign(&d), kp.sign(&d));
    }

    #[test]
    fn default_keysize_round_trip() {
        let mut rng = StdRng::seed_from_u64(8);
        let kp = RsaKeyPair::generate_default(&mut rng);
        assert!(kp.public_key().modulus_bits() >= DEFAULT_MODULUS_BITS - 1);
        let d = hash_bytes(b"root");
        assert!(kp.public_key().verify(&d, &kp.sign(&d)));
    }

    #[test]
    fn public_key_bytes_round_trip() {
        let kp = keypair(10);
        let pk = kp.public_key();
        let bytes = pk.to_bytes();
        let back = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&back, pk);
        let d = hash_bytes(b"root");
        assert!(back.verify(&d, &kp.sign(&d)));
        // Truncation and trailing garbage are rejected.
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(RsaPublicKey::from_bytes(&extra).is_none());
        assert!(RsaPublicKey::from_bytes(&[]).is_none());
        // So is an even modulus: byte 8 + n_len − 1 is the low byte of n.
        let n_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let mut even = bytes.clone();
        even[8 + n_len - 1] ^= 0x01;
        assert!(RsaPublicKey::from_bytes(&even).is_none());
    }

    #[test]
    fn signing_ops_counter_increments() {
        let kp = keypair(11);
        let before = signing_ops();
        kp.sign(&hash_bytes(b"count me"));
        kp.sign(&hash_bytes(b"me too"));
        assert!(signing_ops() >= before + 2);
        // The key's own counter is exact whatever other threads sign,
        // and clones share it.
        assert_eq!(kp.signing_ops(), 2);
        let clone = kp.clone();
        clone.sign(&hash_bytes(b"via clone"));
        assert_eq!(kp.signing_ops(), 3);
        assert_eq!(keypair(11).signing_ops(), 0);
        // Verification must not count as signing.
        let d = hash_bytes(b"verify only");
        let sig = kp.sign(&d);
        assert!(kp.public_key().verify(&d, &sig));
        assert_eq!(kp.signing_ops(), 4);
    }

    /// Golden vectors recorded from the square-and-multiply
    /// implementation this one replaced: seeded keys and signatures
    /// must stay bit-identical, because committed proofs and snapshots
    /// embed them.
    #[test]
    fn seeded_keys_and_signatures_match_golden_vectors() {
        let cases = [
            (
                256,
                "7e512b6be66b5ef9ceeed78a6f5c563065316bda19b671d3c5f55a7b5840c1a5",
                "71aba3cc5ad7fe94730c9a8e0b95febe233c01828c7f3c32d3408ca731bd5824",
            ),
            (
                1024,
                "655c2c3ac9d7220cecc0b19012332cd606a53d42f1c206119f4725a9715d7008\
                 9eff0c568319555ffdd6bb9c099a72757d57f560fce98439d732c5de5eba8be0\
                 35b4b58d67699ede5f5ba6f59673fc046e0764ad429a87988bc8966e3bf49e80\
                 0b766307711465e68a0b5823e4e36e874b80b8f94434ab4403743e8baf8b6995",
                "1d4e74d92feac7388df1c703092e075fbee2476227ef6203c415fada2e3a7180\
                 22c7ba6a2e817cf792c767604c1e8a2f54cdc762fcc5998973945563059e78c2\
                 52a137d111eecf4362a4fe8beb65d36981f807de9a2bbe81e49171e96e6c0166\
                 e4ea2deed06a92cca09d376cb8fec593e6b5cbbbbf438cdac0d4ae52f793e666",
            ),
        ];
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        for (bits, modulus, signature) in cases {
            let kp = RsaKeyPair::generate(&mut StdRng::seed_from_u64(0), bits);
            assert_eq!(
                hex(&kp.public_key().n.to_bytes_be()),
                modulus,
                "{bits}-bit n"
            );
            let d = hash_bytes(b"root");
            let sig = kp.sign(&d);
            assert_eq!(hex(sig.as_bytes()), signature, "{bits}-bit signature");
            assert!(kp.public_key().verify(&d, &sig));
        }
    }

    #[test]
    fn crt_signature_equals_plain_exponentiation() {
        for (seed, bits) in [(20u64, 128usize), (21, 256), (22, 257), (23, 512)] {
            let kp = RsaKeyPair::generate(&mut StdRng::seed_from_u64(seed), bits);
            let one = BigUint::one();
            let phi = kp.p.sub(&one).mul(&kp.q.sub(&one));
            let d = kp.public.e.modinv(&phi).unwrap();
            for msg in [&b"root"[..], b"", b"another root"] {
                let digest = hash_bytes(msg);
                let m = pad_digest(&digest, kp.public.modulus_bits);
                let plain = m.modpow(&d, &kp.public.n);
                assert_eq!(
                    kp.sign(&digest).as_bytes(),
                    plain.to_bytes_be(),
                    "{bits} bits"
                );
            }
        }
    }

    #[test]
    fn verify_rejects_boundary_signature_values() {
        let kp = keypair(12);
        let pk = kp.public_key();
        let d = hash_bytes(b"data");
        let n = &pk.n;
        for s in [
            BigUint::zero(),
            BigUint::one(),
            n.sub(&BigUint::one()),
            n.clone(),
            n.add(&BigUint::one()),
            n.shl(8),
        ] {
            let sig = RsaSignature::from_bytes(s.to_bytes_be());
            assert!(!pk.verify(&d, &sig), "accepted s = {s:?}");
        }
    }

    #[test]
    fn signature_size_close_to_modulus() {
        let kp = keypair(9);
        let sig = kp.sign(&hash_bytes(b"x"));
        assert!(sig.size_bytes() <= 32); // 256-bit modulus
        assert!(sig.size_bytes() >= 28); // overwhelmingly likely
    }
}
