//! Sealing of evicted EPC pages (`EWB`/`ELDU` crypto).
//!
//! `EWB` encrypts an evicted page and binds it to the enclave, the page's
//! linear address, and a monotonically increasing eviction *version*
//! (modeling the Version Array nonce that gives SGX its anti-replay
//! guarantee). `ELDU` rejects blobs whose authentication fails or whose
//! version does not match the outstanding one.

use std::sync::Arc;

use autarky_crypto::aead::{self, AeadError, NONCE_LEN, TAG_LEN};

use crate::addr::{EnclaveId, Vpn, PAGE_SIZE};
use crate::epc::{PageData, Perms};

/// A page evicted from EPC, living in untrusted memory.
///
/// Everything in this struct is visible to the adversary; confidentiality
/// and integrity come only from the ciphertext/tag pair.
///
/// The ciphertext is shared: cloning a blob copies no page, and the
/// bytes behind one allocation never change while two handles hold it.
/// Writing through a shared blob goes through [`Arc::make_mut`], which
/// copies it first. `ELDU` relies on that (see [`crate::machine`]).
#[derive(Debug, Clone)]
pub struct SealedPage {
    /// Owning enclave (metadata, also authenticated).
    pub eid: EnclaveId,
    /// Linear page this blob backs.
    pub vpn: Vpn,
    /// Anti-replay version assigned at eviction.
    pub version: u64,
    /// Permissions to restore.
    pub perms: Perms,
    /// Encrypted page contents.
    pub ciphertext: Arc<Vec<u8>>,
    /// Authentication tag over ciphertext and metadata.
    pub tag: [u8; TAG_LEN],
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

/// Seal a page for eviction, encrypting `contents` in place: its buffer
/// becomes the blob's ciphertext.
pub fn seal_page(
    key: &[u8; 32],
    eid: EnclaveId,
    vpn: Vpn,
    version: u64,
    perms: Perms,
    contents: PageData,
) -> SealedPage {
    let mut ciphertext = (contents as Box<[u8]>).into_vec();
    let nonce = nonce_for(eid, vpn, version);
    let aad = aad_for(eid, vpn, version, perms);
    let tag = aead::seal(key, &nonce, &aad, &mut ciphertext);
    SealedPage {
        eid,
        vpn,
        version,
        perms,
        ciphertext: Arc::new(ciphertext),
        tag,
    }
}

/// Verify and decrypt a sealed page into a new page buffer, which `ELDU`
/// installs as its frame's contents.
pub fn open_page(key: &[u8; 32], sealed: &SealedPage) -> Result<PageData, AeadError> {
    if sealed.ciphertext.len() != PAGE_SIZE {
        return Err(AeadError::TagMismatch);
    }
    let mut buf = sealed.ciphertext.to_vec();
    let nonce = nonce_for(sealed.eid, sealed.vpn, sealed.version);
    let aad = aad_for(sealed.eid, sealed.vpn, sealed.version, sealed.perms);
    aead::open(key, &nonce, &aad, &mut buf, &sealed.tag)?;
    Ok(buf.into_boxed_slice().try_into().expect("PAGE_SIZE bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epc::zeroed_page;

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
        let sealed = seal_page(&KEY, EnclaveId(1), Vpn(5), 3, Perms::RW, page.clone());
        assert_ne!(&sealed.ciphertext[..], &page[..], "must be encrypted");
        let opened = open_page(&KEY, &sealed).expect("authentic");
        assert_eq!(&opened[..], &page[..]);
    }

    #[test]
    fn tamper_detected() {
        let page = page_with(1);
        let mut sealed = seal_page(&KEY, EnclaveId(1), Vpn(5), 3, Perms::RW, page);
        Arc::make_mut(&mut sealed.ciphertext)[100] ^= 0xff;
        assert!(open_page(&KEY, &sealed).is_err());
    }

    #[test]
    fn metadata_swap_detected() {
        // An attacker relocating a blob to a different page must fail.
        let page = page_with(1);
        let mut sealed = seal_page(&KEY, EnclaveId(1), Vpn(5), 3, Perms::RW, page);
        sealed.vpn = Vpn(6);
        assert!(open_page(&KEY, &sealed).is_err());
    }

    #[test]
    fn version_swap_detected() {
        let page = page_with(1);
        let mut sealed = seal_page(&KEY, EnclaveId(1), Vpn(5), 3, Perms::RW, page);
        sealed.version = 4;
        assert!(open_page(&KEY, &sealed).is_err());
    }

    #[test]
    fn perms_swap_detected() {
        let page = page_with(1);
        let mut sealed = seal_page(&KEY, EnclaveId(1), Vpn(5), 3, Perms::R, page);
        sealed.perms = Perms::RWX;
        assert!(open_page(&KEY, &sealed).is_err());
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
        let sealed = seal_page(&KEY, eid, vpn, version, Perms::RX, page);
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
        let a = seal_page(&KEY, EnclaveId(1), Vpn(5), 1, Perms::RW, page.clone());
        let b = seal_page(&KEY, EnclaveId(1), Vpn(5), 2, Perms::RW, page);
        assert_ne!(a.ciphertext, b.ciphertext);
    }
}
