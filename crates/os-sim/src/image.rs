//! Enclave images: what the OS loader maps into a fresh enclave.
//!
//! An image describes the initial (measured) layout — TCS pages, code,
//! data, stack — plus a reserved heap region that the runtime allocates
//! lazily with `EAUG` (SGXv2 dynamic memory). This mirrors how Graphene-SGX
//! lays out an unmodified binary plus the libOS itself.

use autarky_sgx_sim::{Va, Vpn, PAGE_SIZE};

/// Default enclave base linear address.
pub const DEFAULT_BASE: Va = Va(0x1000_0000);

/// One library within the enclave's code region (paper §5.2.3, "Clusters
/// for code pages": the loader builds one cluster per library; a library's
/// cluster also covers the libraries it calls into, so dependents share
/// pages and fetch together).
#[derive(Debug, Clone)]
pub struct Library {
    /// Library name (e.g. "libc.so").
    pub name: String,
    /// Code pages this library occupies.
    pub pages: usize,
    /// Indices (into the image's library list) of libraries this one
    /// calls into.
    pub uses: Vec<usize>,
}

/// Description of an enclave to load.
#[derive(Debug, Clone)]
pub struct EnclaveImage {
    /// Human-readable name (debugging, not measured).
    pub name: String,
    /// Whether the enclave opts in to Autarky self-paging.
    pub self_paging: bool,
    /// Number of TCS pages (hardware threads that may enter).
    pub tcs_count: usize,
    /// Code pages (mapped read-execute, contents measured).
    pub code_pages: usize,
    /// Initialized data pages (mapped read-write, contents measured).
    pub data_pages: usize,
    /// Stack pages (read-write, zeroed).
    pub stack_pages: usize,
    /// Reserved heap pages, allocated on demand by the runtime.
    pub heap_pages: usize,
    /// Base linear address.
    pub base: Va,
    /// Code-region layout by library. Empty means one anonymous library
    /// covering all code pages. When non-empty, the page counts must sum
    /// to at most `code_pages`.
    pub libraries: Vec<Library>,
}

impl EnclaveImage {
    /// A small default image; callers override the fields they care about.
    pub fn named(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            self_paging: true,
            tcs_count: 1,
            code_pages: 16,
            data_pages: 16,
            stack_pages: 8,
            heap_pages: 256,
            base: DEFAULT_BASE,
            libraries: Vec::new(),
        }
    }

    /// Append a library occupying `pages` code pages, calling into the
    /// libraries at `uses` (indices into the current list). Returns the
    /// new library's index.
    pub fn add_library(&mut self, name: &str, pages: usize, uses: &[usize]) -> usize {
        self.libraries.push(Library {
            name: name.to_owned(),
            pages,
            uses: uses.to_vec(),
        });
        self.libraries.len() - 1
    }

    /// The code pages of library `index` (laid out in declaration order
    /// from the start of the code region).
    pub fn library_pages(&self, index: usize) -> Vec<Vpn> {
        let mut start = self.code_start().0;
        for lib in &self.libraries[..index] {
            start += lib.pages as u64;
        }
        (start..start + self.libraries[index].pages as u64)
            .map(Vpn)
            .collect()
    }

    /// Total pages in the enclave's linear range.
    pub fn total_pages(&self) -> usize {
        self.tcs_count + self.code_pages + self.data_pages + self.stack_pages + self.heap_pages
    }

    /// Size of the enclave region in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.total_pages() * PAGE_SIZE) as u64
    }

    fn page_at(&self, index: usize) -> Vpn {
        Vpn(self.base.vpn().0 + index as u64)
    }

    /// First TCS page.
    pub fn tcs_start(&self) -> Vpn {
        self.page_at(0)
    }

    /// First code page.
    pub fn code_start(&self) -> Vpn {
        self.page_at(self.tcs_count)
    }

    /// First data page.
    pub fn data_start(&self) -> Vpn {
        self.page_at(self.tcs_count + self.code_pages)
    }

    /// First stack page.
    pub fn stack_start(&self) -> Vpn {
        self.page_at(self.tcs_count + self.code_pages + self.data_pages)
    }

    /// First heap page (the lazily-allocated region).
    pub fn heap_start(&self) -> Vpn {
        self.page_at(self.tcs_count + self.code_pages + self.data_pages + self.stack_pages)
    }

    /// One-past-the-last page.
    pub fn end(&self) -> Vpn {
        self.page_at(self.total_pages())
    }

    /// All code-page numbers.
    pub fn code_range(&self) -> impl Iterator<Item = Vpn> {
        let start = self.code_start().0;
        (start..start + self.code_pages as u64).map(Vpn)
    }

    /// All heap-page numbers.
    pub fn heap_range(&self) -> impl Iterator<Item = Vpn> {
        let start = self.heap_start().0;
        (start..start + self.heap_pages as u64).map(Vpn)
    }

    /// Deterministic synthetic contents for measured page `vpn` (stands in
    /// for real code/data so measurements are content-sensitive).
    pub fn page_contents(&self, vpn: Vpn) -> [u8; PAGE_SIZE] {
        let mut page = [0u8; PAGE_SIZE];
        let seed = vpn.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for (i, chunk) in page.chunks_mut(8).enumerate() {
            let word = seed
                .wrapping_add(i as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_ordered() {
        let img = EnclaveImage::named("t");
        assert_eq!(img.tcs_start(), img.base.vpn());
        assert!(img.code_start().0 > img.tcs_start().0);
        assert!(img.data_start().0 > img.code_start().0);
        assert!(img.stack_start().0 > img.data_start().0);
        assert!(img.heap_start().0 > img.stack_start().0);
        assert_eq!(img.end().0 - img.base.vpn().0, img.total_pages() as u64);
    }

    #[test]
    fn ranges_have_declared_sizes() {
        let img = EnclaveImage::named("t");
        assert_eq!(img.code_range().count(), img.code_pages);
        assert_eq!(img.heap_range().count(), img.heap_pages);
        assert_eq!(img.size_bytes(), (img.total_pages() * PAGE_SIZE) as u64);
    }

    #[test]
    fn libraries_partition_the_code_region() {
        let mut img = EnclaveImage::named("libs");
        img.code_pages = 10;
        let libc = img.add_library("libc", 4, &[]);
        let libjpeg = img.add_library("libjpeg", 3, &[libc]);
        let app = img.add_library("app", 3, &[libc, libjpeg]);
        assert_eq!(img.library_pages(libc).len(), 4);
        assert_eq!(img.library_pages(libjpeg)[0].0, img.code_start().0 + 4);
        assert_eq!(img.library_pages(app)[0].0, img.code_start().0 + 7);
        // Disjoint coverage.
        let all: Vec<_> = (0..3).flat_map(|i| img.library_pages(i)).collect();
        let distinct: autarky_prng::SimSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn contents_differ_per_page() {
        let img = EnclaveImage::named("t");
        assert_ne!(
            img.page_contents(img.code_start()).to_vec(),
            img.page_contents(img.data_start()).to_vec()
        );
    }
}
