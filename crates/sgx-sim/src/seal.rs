//! Sealing of evicted EPC pages (`EWB`/`ELDU` crypto).
//!
//! `EWB` encrypts an evicted page and binds it to the enclave, the page's
//! linear address, and a monotonically increasing eviction *version*
//! (modeling the Version Array nonce that gives SGX its anti-replay
//! guarantee). `ELDU` rejects blobs whose authentication fails or whose
//! version does not match the outstanding one.
//!
//! A blob's bytes are sealed on first read. `EWB` moves the freed page
//! into the blob with the labels it was sealed under, and
//! [`SealedPage::ciphertext`] and [`SealedPage::tag`] compute the bytes
//! `EWB` would have written from those, never from the blob's current
//! labels, which the OS may change. On the honest path no one reads them,
//! so no seal runs. `ELDU` installs the page of a blob whose bytes no one
//! wrote and whose labels are the ones it was sealed under: opening it
//! would return exactly that page (see [`crate::machine`]).

use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, OnceLock};

use autarky_crypto::aead::{self, AeadError, NONCE_LEN, TAG_LEN};

use crate::addr::{EnclaveId, Vpn, PAGE_SIZE};
use crate::epc::{PageData, Perms};

/// The key every machine seals `EWB` blobs (and signs reports) under.
pub(crate) const PLATFORM_KEY: [u8; 32] = [0xA5; 32];

/// A page evicted from EPC, living in untrusted memory.
///
/// Everything in this struct is visible to the adversary; confidentiality
/// and integrity come only from the ciphertext/tag pair.
///
/// The body is shared: cloning a blob copies no page, and a body never
/// changes behind its `Arc`. Writing goes through
/// [`SealedPage::bytes_mut`], which moves the blob onto a body of its own
/// first. `Debug` prints the labels only.
#[derive(Clone)]
pub struct SealedPage {
    /// Owning enclave (metadata, also authenticated).
    pub eid: EnclaveId,
    /// Linear page this blob backs.
    pub vpn: Vpn,
    /// Anti-replay version assigned at eviction.
    pub version: u64,
    /// Permissions to restore.
    pub perms: Perms,
    body: Arc<Body>,
}

/// A blob's encrypted contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBytes {
    /// Encrypted page contents.
    pub ciphertext: Vec<u8>,
    /// Authentication tag over ciphertext and metadata.
    pub tag: [u8; TAG_LEN],
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct Labels {
    eid: EnclaveId,
    vpn: Vpn,
    version: u64,
    perms: Perms,
}

#[derive(Clone)]
enum Body {
    /// The page `EWB` freed and the labels it was sealed under; the bytes
    /// are computed on first read.
    Unwritten {
        labels: Labels,
        page: PageData,
        sealed: OnceLock<SealedBytes>,
    },
    /// Bytes someone wrote.
    Written(SealedBytes),
}

impl SealedPage {
    fn labels(&self) -> Labels {
        Labels {
            eid: self.eid,
            vpn: self.vpn,
            version: self.version,
            perms: self.perms,
        }
    }

    fn bytes(&self) -> &SealedBytes {
        match &*self.body {
            Body::Unwritten {
                labels,
                page,
                sealed,
            } => sealed.get_or_init(|| seal(&PLATFORM_KEY, *labels, &page[..])),
            Body::Written(bytes) => bytes,
        }
    }

    /// Encrypted page contents.
    pub fn ciphertext(&self) -> &[u8] {
        &self.bytes().ciphertext
    }

    /// Authentication tag over ciphertext and metadata.
    pub fn tag(&self) -> &[u8; TAG_LEN] {
        &self.bytes().tag
    }

    /// The blob's bytes, for writing. Seals first, and copies a body
    /// another handle holds, so only this blob changes.
    pub fn bytes_mut(&mut self) -> &mut SealedBytes {
        if let Body::Unwritten { .. } = *self.body {
            self.body = Arc::new(Body::Written(self.bytes().clone()));
        }
        match Arc::make_mut(&mut self.body) {
            Body::Written(bytes) => bytes,
            Body::Unwritten { .. } => unreachable!("the body was written above"),
        }
    }

    /// The page `EWB` moved into this blob, if no one wrote its bytes and
    /// its labels are the ones it was sealed under: then opening the blob
    /// would return exactly this page. A body cannot change behind its
    /// `Arc` (every crate but `crypto` forbids `unsafe`), only
    /// [`seal_page`] builds an unwritten one, and every machine seals
    /// under [`PLATFORM_KEY`].
    pub(crate) fn unwritten_page(&self) -> Option<&PageData> {
        match &*self.body {
            Body::Unwritten { labels, page, .. } if *labels == self.labels() => Some(page),
            _ => None,
        }
    }
}

impl fmt::Debug for SealedPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SealedPage")
            .field("eid", &self.eid)
            .field("vpn", &self.vpn)
            .field("version", &self.version)
            .field("perms", &self.perms)
            .finish_non_exhaustive()
    }
}

thread_local! {
    static SEALS: Cell<u64> = const { Cell::new(0) };
}

/// Blobs this thread has sealed so far: each is one read of an unwritten
/// blob's bytes. Host-only: no simulated count or charge sees it, and an
/// honest run of `EWB` and `ELDU` leaves it where it was.
pub fn seals_computed() -> u64 {
    SEALS.with(Cell::get)
}

/// Whether `vpn` and `version` fit the 32 bits each that the nonce holds.
/// [`seal_page`] must only see pairs that do: the AAD authenticates the
/// full values but does not feed the keystream, so a truncated pair would
/// reuse another page's or an earlier eviction's keystream.
pub(crate) fn nonce_fits(vpn: Vpn, version: u64) -> bool {
    u32::try_from(vpn.0).is_ok() && u32::try_from(version).is_ok()
}

fn nonce_for(eid: EnclaveId, vpn: Vpn, version: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&eid.0.to_le_bytes());
    // `EWB` seals only pairs that pass `nonce_fits`, so the nonce is unique
    // per (enclave, page, eviction) under the platform key.
    nonce[4..8].copy_from_slice(&(vpn.0 as u32).to_le_bytes());
    nonce[8..12].copy_from_slice(&(version as u32).to_le_bytes());
    nonce
}

/// Bytes of associated data: enclave id, page number, version, and the
/// three permission bits.
const AAD_LEN: usize = 4 + 8 + 8 + 3;

fn aad_for(eid: EnclaveId, vpn: Vpn, version: u64, perms: Perms) -> [u8; AAD_LEN] {
    let mut aad = [0u8; AAD_LEN];
    aad[..4].copy_from_slice(&eid.0.to_le_bytes());
    aad[4..12].copy_from_slice(&vpn.0.to_le_bytes());
    aad[12..20].copy_from_slice(&version.to_le_bytes());
    aad[20..].copy_from_slice(&[perms.r as u8, perms.w as u8, perms.x as u8]);
    aad
}

/// Encrypt `page` under `key` and `labels`: the bytes `EWB` writes.
fn seal(key: &[u8; 32], labels: Labels, page: &[u8]) -> SealedBytes {
    SEALS.with(|seals| seals.set(seals.get() + 1));
    let Labels {
        eid,
        vpn,
        version,
        perms,
    } = labels;
    let mut ciphertext = page.to_vec();
    let tag = aead::seal(
        key,
        &nonce_for(eid, vpn, version),
        &aad_for(eid, vpn, version, perms),
        &mut ciphertext,
    );
    SealedBytes { ciphertext, tag }
}

/// Seal a page for eviction: the blob takes `contents` and the labels,
/// and computes its bytes when someone first reads them.
pub(crate) fn seal_page(
    eid: EnclaveId,
    vpn: Vpn,
    version: u64,
    perms: Perms,
    contents: PageData,
) -> SealedPage {
    let labels = Labels {
        eid,
        vpn,
        version,
        perms,
    };
    SealedPage {
        eid,
        vpn,
        version,
        perms,
        body: Arc::new(Body::Unwritten {
            labels,
            page: contents,
            sealed: OnceLock::new(),
        }),
    }
}

/// Verify and decrypt a sealed page into a new page buffer, which `ELDU`
/// installs as its frame's contents.
pub(crate) fn open_page(sealed: &SealedPage) -> Result<PageData, AeadError> {
    let bytes = sealed.bytes();
    if bytes.ciphertext.len() != PAGE_SIZE {
        return Err(AeadError::TagMismatch);
    }
    let mut buf = bytes.ciphertext.clone();
    let nonce = nonce_for(sealed.eid, sealed.vpn, sealed.version);
    let aad = aad_for(sealed.eid, sealed.vpn, sealed.version, sealed.perms);
    aead::open(&PLATFORM_KEY, &nonce, &aad, &mut buf, &bytes.tag)?;
    Ok(buf.into_boxed_slice().try_into().expect("PAGE_SIZE bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epc::zeroed_page;
    use autarky_prng::SimRng;

    const KEY: [u8; 32] = [0x42; 32];

    fn page_with(byte: u8) -> PageData {
        let mut p = zeroed_page();
        p[0] = byte;
        p[PAGE_SIZE - 1] = byte;
        p
    }

    #[test]
    fn roundtrip() {
        let page = page_with(0x7f);
        let sealed = seal_page(EnclaveId(1), Vpn(5), 3, Perms::RW, page.clone());
        assert_ne!(sealed.ciphertext(), &page[..], "must be encrypted");
        let opened = open_page(&sealed).expect("authentic");
        assert_eq!(&opened[..], &page[..]);
    }

    #[test]
    fn tamper_detected() {
        let page = page_with(1);
        let mut sealed = seal_page(EnclaveId(1), Vpn(5), 3, Perms::RW, page);
        sealed.bytes_mut().ciphertext[100] ^= 0xff;
        assert!(open_page(&sealed).is_err());
    }

    #[test]
    fn metadata_swap_detected() {
        // An attacker relocating a blob to a different page must fail.
        let page = page_with(1);
        let mut sealed = seal_page(EnclaveId(1), Vpn(5), 3, Perms::RW, page);
        sealed.vpn = Vpn(6);
        assert!(open_page(&sealed).is_err());
    }

    #[test]
    fn version_swap_detected() {
        let page = page_with(1);
        let mut sealed = seal_page(EnclaveId(1), Vpn(5), 3, Perms::RW, page);
        sealed.version = 4;
        assert!(open_page(&sealed).is_err());
    }

    #[test]
    fn perms_swap_detected() {
        let page = page_with(1);
        let mut sealed = seal_page(EnclaveId(1), Vpn(5), 3, Perms::R, page);
        sealed.perms = Perms::RWX;
        assert!(open_page(&sealed).is_err());
    }

    #[test]
    fn sealed_blob_matches_a_known_answer() {
        // Every field distinct and nonzero in the bytes the nonce and the
        // AAD take, so this pins both layouts: any change to either moves
        // the keystream or the tag.
        let mut page = zeroed_page();
        for (i, byte) in page.iter_mut().enumerate() {
            *byte = (i * 7 + 3) as u8;
        }
        let (eid, vpn, version) = (EnclaveId(0x0a0b_0c0d), Vpn(0x8765_4321), 0x1234_5678);
        let labels = Labels {
            eid,
            vpn,
            version,
            perms: Perms::RX,
        };
        let sealed = seal(&KEY, labels, &page[..]);
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(hex(&sealed.tag), "3c5fe2926dc68b91e6cb6e69dfa495c1");
        assert_eq!(
            hex(&autarky_crypto::sha256(&sealed.ciphertext)),
            "d3b28b0334cdd789db62cfb55a8137ecb1f5f5e0c753ce2d668be07a2f45b344"
        );
    }

    #[test]
    fn distinct_versions_distinct_ciphertexts() {
        let page = page_with(1);
        let a = seal_page(EnclaveId(1), Vpn(5), 1, Perms::RW, page.clone());
        let b = seal_page(EnclaveId(1), Vpn(5), 2, Perms::RW, page);
        assert_ne!(a.ciphertext(), b.ciphertext());
    }

    #[test]
    fn a_blob_sealed_on_first_read_reads_as_one_sealed_eagerly() {
        let mut rng = SimRng::seed_from_u64(29);
        let perms = [Perms::R, Perms::RW, Perms::RX, Perms::RWX];
        for i in 0..64u64 {
            let mut page = zeroed_page();
            rng.fill_bytes(&mut page[..]);
            let (vpn, version) = match i {
                // The largest pair `nonce_fits` allows.
                0 => (u64::from(u32::MAX), u64::from(u32::MAX)),
                _ => (rng.next_u64() >> 32, rng.next_u64() >> 32),
            };
            assert!(nonce_fits(Vpn(vpn), version));
            let eid = EnclaveId(rng.next_u32());
            let perms = perms[i as usize % perms.len()];
            let blob = seal_page(eid, Vpn(vpn), version, perms, page.clone());
            let seals = seals_computed();
            let mut eager = page.to_vec();
            let tag = aead::seal(
                &PLATFORM_KEY,
                &nonce_for(eid, Vpn(vpn), version),
                &aad_for(eid, Vpn(vpn), version, perms),
                &mut eager,
            );
            assert_eq!(blob.ciphertext(), &eager[..], "blob {i}");
            assert_eq!(blob.tag(), &tag, "blob {i}");
            assert_eq!(seals_computed(), seals + 1, "blob {i} seals once");
        }
    }

    #[test]
    fn a_blob_relabelled_before_its_first_read_reads_its_own_bytes() {
        let page = page_with(9);
        let blob = seal_page(EnclaveId(1), Vpn(5), 3, Perms::RW, page.clone());
        let mut moved = blob.clone();
        moved.vpn = Vpn(6);
        moved.version = 4;
        moved.perms = Perms::RWX;
        assert!(moved.unwritten_page().is_none());
        let bytes = seal(&PLATFORM_KEY, blob.labels(), &page[..]);
        assert_eq!(moved.ciphertext(), &bytes.ciphertext[..]);
        assert_eq!(moved.tag(), &bytes.tag);
        assert!(open_page(&moved).is_err());
        assert_eq!(&open_page(&blob).expect("authentic")[..], &page[..]);
    }

    #[test]
    fn writing_a_shared_blob_copies_it_first() {
        let blob = seal_page(EnclaveId(1), Vpn(5), 3, Perms::RW, page_with(3));
        let mut written = blob.clone();
        written.bytes_mut().ciphertext[0] ^= 0x01;
        assert!(written.unwritten_page().is_none());
        assert_eq!(blob.unwritten_page(), Some(&page_with(3)));
        assert_ne!(written.ciphertext(), blob.ciphertext());
        let mut copy = written.clone();
        copy.bytes_mut().tag[0] ^= 0x01;
        assert_eq!(written.tag(), blob.tag(), "the shared written body");
        assert_ne!(copy.tag(), written.tag());
    }

    #[test]
    fn debug_prints_the_labels_and_no_page_byte() {
        fn send_and_sync<T: Send + Sync>() {}
        send_and_sync::<SealedPage>();
        let blob = seal_page(EnclaveId(7), Vpn(0x1234), 9, Perms::RX, page_with(0xEE));
        let printed = format!("{blob:?}");
        for label in ["eid", "EnclaveId(7)", "Vpn(4660)", "version: 9", "perms"] {
            assert!(printed.contains(label), "{printed}");
        }
        for byte in ["238", "ciphertext", "tag", "page"] {
            assert!(!printed.contains(byte), "{printed}");
        }
    }
}
