//! The secret-pair victims: Table 2's attack victims (libjpeg,
//! FreeType, Hunspell) and Figure 8's store, as one program both
//! security gates drive.
//!
//! The leakage audit measures how many bits/run of a victim's secret
//! reach the OS; the replay and restore gates require the same victim's
//! runs to be bit-identical. Both statements are about one program
//! only because this module is its only definition: each victim's
//! sizes, public setup, secret input and baseline-tracer targets, its
//! secret phase as a sequence of operations, the world it runs in, and
//! the failover cycle that interrupts it. The gates differ only in what
//! they do at the hooks between operations.

use autarky::{Profile, SystemBuilder};
use autarky_os_sim::Os;
use autarky_runtime::RtError;
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::{MonotonicCounter, Vpn};
use autarky_workloads::{font, jpeg, kvstore, spell, EncHeap, World};

use crate::schedule::SchedulePolicy;

/// JPEG image side in pixels.
const SIDE: usize = 32;
/// Glyphs in the rendered string.
const LEN: usize = 16;
/// Words in the spell checker's dictionary.
const DICT_WORDS: usize = 300;
/// Words in the checked text.
const QUERY_WORDS: usize = 24;
/// Items in the key-value store.
const ITEMS: u64 = 128;
/// Value size of one store item, in bytes.
const VALUE_SIZE: usize = 512;
/// GETs in the store's request stream.
const GETS: usize = 48;

/// A victim: one workload whose secret input the OS tries to learn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victim {
    /// JPEG decode (libjpeg flatness victim).
    Jpeg,
    /// Glyph rendering (FreeType victim).
    Font,
    /// Dictionary lookups (Hunspell victim).
    Spell,
    /// Key-value store gets (Figure 8 store).
    Kvstore,
}

impl Victim {
    /// Every victim, in report order.
    pub const ALL: [Victim; 4] = [Victim::Jpeg, Victim::Font, Victim::Spell, Victim::Kvstore];

    /// Stable name: the value of a campaign cell's `workload` axis and
    /// the leakage report's row label.
    pub fn name(self) -> &'static str {
        match self {
            Victim::Jpeg => "jpeg",
            Victim::Font => "font",
            Victim::Spell => "spell",
            Victim::Kvstore => "kvstore",
        }
    }

    /// Resolve a [`Victim::name`] back to a victim.
    pub fn from_name(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|v| v.name() == tag)
    }

    /// Whether a periodic telemetry export follows operation `done`:
    /// every 8 words for spell, every 16 GETs for kvstore. The one-op
    /// victims have no period.
    pub fn exports_at(self, done: usize) -> bool {
        match self {
            Victim::Jpeg | Victim::Font => false,
            Victim::Spell => done > 0 && done.is_multiple_of(8),
            Victim::Kvstore => done > 0 && done.is_multiple_of(16),
        }
    }

    /// The operation after which a failover interrupts the phase: the
    /// midpoint of spell and kvstore, the end of the one-op victims.
    pub fn failover_point(self) -> usize {
        match self {
            Victim::Jpeg | Victim::Font => 1,
            Victim::Spell => QUERY_WORDS / 2,
            Victim::Kvstore => GETS / 2,
        }
    }

    /// Run the victim's public setup in `world` and pick side `secret`
    /// (0 or 1) of its secret pair. Setup is secret-independent; only
    /// the returned phase touches the secret.
    pub fn setup(
        self,
        world: &mut World,
        heap: &mut EncHeap,
        secret: u32,
    ) -> Result<SecretPhase, RtError> {
        let state = match self {
            Victim::Jpeg => {
                let image = jpeg::encode(SIDE, SIDE, &pick(secret, jpeg::secret_pair(SIDE)));
                State::Jpeg(jpeg::Decoder::new(world, heap, SIDE, SIDE)?, image)
            }
            Victim::Font => {
                let text = pick(secret, font::secret_pair(LEN));
                State::Font(font::FontRenderer::new(world, heap, LEN)?, text)
            }
            Victim::Spell => {
                let dictionary = spell::Dictionary::load(world, heap, "en", DICT_WORDS)?;
                let words = pick(secret, spell::secret_pair("en", DICT_WORDS, QUERY_WORDS));
                State::Spell(dictionary, words)
            }
            Victim::Kvstore => {
                let mut store = kvstore::KvStore::new(
                    world,
                    heap,
                    ITEMS,
                    VALUE_SIZE,
                    kvstore::ItemClustering::None,
                )?;
                store.load(world, heap, ITEMS)?;
                State::Kvstore(store, pick(secret, kvstore::secret_pair(ITEMS, GETS)))
            }
        };
        let targets = match &state {
            State::Jpeg(..) | State::Font(..) => world.image.code_range().collect(),
            State::Spell(dictionary, _) => dictionary.pages.clone(),
            State::Kvstore(..) => world.image.heap_range().collect(),
        };
        Ok(SecretPhase { state, targets })
    }
}

/// Side `secret` of a secret pair.
fn pick<T>(secret: u32, (a, b): (T, T)) -> T {
    if secret == 0 {
        a
    } else {
        b
    }
}

/// A victim after its public setup, holding its secret input.
pub struct SecretPhase {
    state: State,
    /// The pages the baseline fault tracer arms: the code pages whose
    /// execution order is the jpeg and font secret, the dictionary's
    /// pages, the store's heap.
    pub targets: Vec<Vpn>,
}

enum State {
    Jpeg(jpeg::Decoder, jpeg::Compressed),
    Font(font::FontRenderer, String),
    Spell(spell::Dictionary, Vec<String>),
    Kvstore(kvstore::KvStore, Vec<u64>),
}

impl SecretPhase {
    /// Operations in the phase: one decode or render, one check per
    /// word, one GET per key.
    pub fn ops(&self) -> usize {
        match &self.state {
            State::Jpeg(..) | State::Font(..) => 1,
            State::Spell(_, words) => words.len(),
            State::Kvstore(_, keys) => keys.len(),
        }
    }

    /// Run the phase, calling `at(world, heap, done)` before the first
    /// operation (`done` = 0) and after each one (`done` operations
    /// completed). Hooks run between operations, where no correlation
    /// chain is open and the machine's transition log has drained. The
    /// first error, from an operation or a hook, ends the phase.
    pub fn run(
        mut self,
        world: &mut World,
        heap: &mut EncHeap,
        mut at: impl FnMut(&mut World, &EncHeap, usize) -> Result<(), RtError>,
    ) -> Result<(), RtError> {
        at(world, heap, 0)?;
        for done in 1..=self.ops() {
            self.op(world, heap, done - 1)?;
            at(world, heap, done)?;
        }
        Ok(())
    }

    fn op(&mut self, world: &mut World, heap: &mut EncHeap, i: usize) -> Result<(), RtError> {
        match &mut self.state {
            State::Jpeg(decoder, image) => decoder.decode(world, heap, image),
            State::Font(renderer, text) => renderer.render_text(world, heap, text),
            State::Spell(dictionary, words) => dictionary.check(world, heap, &words[i]).map(drop),
            State::Kvstore(store, keys) => {
                store
                    .get(world, heap, keys[i])?
                    .expect("loaded key present");
                Ok(())
            }
        }
    }
}

/// Build a victim's world under `protection` (`None`: vanilla SGX, no
/// self-paging). `budget` is the self-paging resident budget in pages
/// (the ORAM and vanilla profiles ignore it) and `seed` the world seed;
/// both are the caller's, because its reports depend on them.
///
/// Neither budget makes every victim page. In the leakage audit (budget
/// 48), the spell and kvstore cells under rate-limit, clusters and
/// cached-oram capture no event at all: 6 of those 12 cells are
/// vacuous. Every rate-limit cell sees at most one fault against its
/// 4,096-fault burst. In the replay and restore gates (budget 32),
/// clusters/spell records 32 events with one fault, under the transient
/// and hostile fault plans too, so no injection lands there.
pub fn build_world(
    protection: Option<SchedulePolicy>,
    budget: usize,
    seed: u64,
) -> (World, EncHeap) {
    let profile = match protection {
        None => Profile::Unprotected,
        Some(SchedulePolicy::Clusters) => Profile::Clusters {
            pages_per_cluster: 10,
        },
        Some(SchedulePolicy::RateLimit) => Profile::RateLimited {
            max_faults_per_progress: 64.0,
            burst: 4096,
        },
        Some(SchedulePolicy::CachedOram) => Profile::CachedOram {
            capacity_pages: 512,
            cache_pages: 24,
        },
    };
    SystemBuilder::new("victim", profile)
        .epc_pages(4096)
        .heap_pages(1024)
        .code_pages(24)
        .budget_pages(budget)
        .seed(seed)
        .build()
        .expect("victim world builds")
}

/// Snapshot the enclave, crash the host, boot a failover host that
/// adopts the enclave's untrusted OS-side state (backing store, fault
/// injector, flight recorder), and restore from the sealed blob.
/// Returns the length of the blob the OS transported.
///
/// Panics on any failure: here the snapshot cycle is the happy path,
/// and a failure is a harness or codec bug, not a simulated attack.
pub fn crash_and_restore(world: &mut World) -> usize {
    let mut counter = MonotonicCounter::new(world.os.machine.platform_key(), world.eid);
    let blob =
        autarky_snapshot::snapshot(&world.os, &world.rt, &mut counter).expect("mid-run snapshot");
    // `build_world` uses the default machine geometry; the failover host
    // must match it (a failover to different hardware is out of scope).
    let mut host = Os::new(MachineConfig::default());
    host.adopt_untrusted_state(&mut world.os, world.eid)
        .expect("failover host adopts OS-side state");
    world.os = host;
    world.rt = autarky_snapshot::restore(&mut world.os, &mut counter, &blob)
        .expect("restore on failover host");
    blob.len()
}
