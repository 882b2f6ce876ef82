//! `flitctl` — operator introspection for the FliT stack.
//!
//! ```text
//! cargo run -p flit-bench --release --bin flitctl -- inspect <pool-file>
//! cargo run -p flit-bench --release --bin flitctl -- stats [--shards N] [--ops N]
//! cargo run -p flit-bench --release --bin flitctl -- scan [--shards N] [--keys N] [--prefix P] [--mask M]
//! ```
//!
//! `inspect` reads a pool file **without mapping it** — every field comes from
//! plain `pread` calls against the published on-disk layout
//! ([`flit_pmem::pool`] + the arena header offsets in `flit_alloc`), so it
//! works on pools recorded at a base address this process could never map,
//! on pools left behind by a SIGKILLed process, and on corrupt pools (bad
//! fields are reported, not trusted). It prints one `flit-pool-inspect-v1`
//! JSON document: superblock, arena directory, per-arena header with a
//! bounded free-list walk, the named root table, and — for arenas holding a
//! `flit-hamt` retained-root table — the live snapshot entries. When any
//! arena's free-list walk trips a defensive guard (a cycle, a link beyond the
//! high-water mark, an unrecorded chunk, the length cap), the document is
//! still printed but the process exits with status 3: a tripped guard means
//! the durable free list is structurally damaged, which scripts must not
//! mistake for a healthy pool.
//!
//! `stats` stands up an in-process sharded [`KvServer`] on heap-backed
//! simulated NVRAM, drives a little traffic through the request pump, then
//! sends [`Op::Stats`] down the same wire path and prints the `flit-obs-v1`
//! metrics document the server answers with — an end-to-end check that the
//! stats control plane works over the byte protocol.
//!
//! `scan` does the same for the snapshot control plane: a HAMT-backed server,
//! a seeded prefill through the pump, then [`Op::Scan`] over the wire; the
//! [`Reply::Entries`] answer is printed as a `flit-scan-v1` JSON document.

use std::collections::HashSet;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::process::ExitCode;

use flit::{FlitDb, FlitPolicy, HashedScheme};
use flit_datastructs::{Automatic, HashTable};
use flit_obs::json_str;
use flit_pmem::pool::{
    direntry, superblock, CLEAN_CLOSE_MAGIC, DIR_ENTRY_BYTES, DIR_OFFSET, MAX_ARENAS,
    MAX_BLOCKS_PER_ARENA, MAX_CHUNKS_PER_ARENA, POOL_MAGIC, POOL_VERSION,
};
use flit_pmem::{CommitMode, LatencyModel, SimNvram};
use flit_server::{KvServer, Op, Reply, ServerConfig};

/// Schema tag of the `inspect` document, for `jq`-side validation.
const INSPECT_SCHEMA: &str = "flit-pool-inspect-v1";

/// Upper bound on free-list links followed per arena; a list longer than this
/// is reported as truncated rather than walked forever.
const FREE_WALK_LIMIT: usize = 1 << 20;

fn usage() -> ExitCode {
    eprintln!(
        "usage: flitctl inspect <pool-file>\n       \
         flitctl stats [--shards N] [--ops N]\n       \
         flitctl scan [--shards N] [--keys N] [--prefix P] [--mask M]"
    );
    ExitCode::from(2)
}

/// Exit status when `inspect` finds a structurally damaged free list (cycle,
/// out-of-bounds link, unrecorded chunk, or capped walk).
const GUARD_TRIPPED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("inspect") => match args.get(1) {
            Some(path) if args.len() == 2 => inspect(Path::new(path)),
            _ => return usage(),
        },
        Some("stats") => stats(&args[1..]).map(|doc| (doc, ExitCode::SUCCESS)),
        Some("scan") => scan(&args[1..]).map(|doc| (doc, ExitCode::SUCCESS)),
        _ => return usage(),
    };
    match result {
        Ok((doc, code)) => {
            println!("{doc}");
            code
        }
        Err(e) => {
            eprintln!("flitctl: {e}");
            ExitCode::FAILURE
        }
    }
}

// --- inspect ---------------------------------------------------------------

/// `pread` one little-endian u64 word at `offset`.
fn read_word(file: &File, offset: u64) -> Result<u64, String> {
    let mut buf = [0u8; 8];
    file.read_exact_at(&mut buf, offset)
        .map_err(|e| format!("read at {offset:#x}: {e}"))?;
    Ok(u64::from_le_bytes(buf))
}

/// Human name for a registered root key, when it is one of the named roots in
/// [`flit_alloc::roots`].
fn root_name(key: u64) -> Option<&'static str> {
    use flit_alloc::roots;
    match key {
        roots::LIST_HEAD => Some("list_head"),
        roots::HASH_DIRECTORY => Some("hash_directory"),
        roots::BST_ROOT => Some("bst_root"),
        roots::SKIPLIST_HEAD => Some("skiplist_head"),
        roots::QUEUE_ROOTS => Some("queue_roots"),
        roots::HAMT_ROOT => Some("hamt_root"),
        roots::HAMT_RETAINED => Some("hamt_retained"),
        _ => None,
    }
}

/// Walk one arena's durable free list by `pread`, following the `offset + 1`
/// encoding: the head word and each freed slot's first word hold the next
/// free slot's offset plus one (zero terminates). The walk is defensive —
/// bounded by the high-water mark, cycle-guarded, and capped — because the
/// pool under inspection may be mid-crash or corrupt.
struct FreeWalk {
    depth: u64,
    head_slot: Option<u64>,
    truncated: bool,
    reason: Option<String>,
}

fn walk_free_list(
    file: &File,
    head_word: u64,
    high_water: u64,
    slot_size: u64,
    chunk_slots: u64,
    chunks: &[u64],
) -> FreeWalk {
    let mut walk = FreeWalk {
        depth: 0,
        head_slot: head_word.checked_sub(1),
        truncated: false,
        reason: None,
    };
    let mut seen = HashSet::new();
    let mut link = head_word;
    while link != 0 {
        let off = link - 1;
        if off >= high_water {
            walk.truncated = true;
            walk.reason = Some(format!("slot {off} beyond high-water {high_water}"));
            return walk;
        }
        if !seen.insert(off) {
            walk.truncated = true;
            walk.reason = Some(format!("cycle at slot {off}"));
            return walk;
        }
        if walk.depth as usize >= FREE_WALK_LIMIT {
            walk.truncated = true;
            walk.reason = Some(format!("walk capped at {FREE_WALK_LIMIT} links"));
            return walk;
        }
        let chunk = (off / chunk_slots) as usize;
        let Some(&chunk_base) = chunks.get(chunk) else {
            walk.truncated = true;
            walk.reason = Some(format!("slot {off} maps to unrecorded chunk {chunk}"));
            return walk;
        };
        let slot_off = chunk_base + (off % chunk_slots) * slot_size;
        walk.depth += 1;
        match read_word(file, slot_off) {
            Ok(next) => link = next,
            Err(e) => {
                walk.truncated = true;
                walk.reason = Some(e);
                return walk;
            }
        }
    }
    walk
}

/// Render one live arena directory entry (plus its on-file header) as JSON.
/// The `bool` reports whether the free-list walk tripped a guard.
fn inspect_arena(file: &File, index: usize) -> Result<(String, bool), String> {
    let entry = (DIR_OFFSET + index * DIR_ENTRY_BYTES) as u64;
    let word = |field: usize| read_word(file, entry + field as u64);

    let state = word(direntry::STATE)?;
    let mut out = format!("{{\"index\":{index},\"state\":{state}");
    if state != 1 {
        out.push('}');
        return Ok((out, false));
    }

    let slot_size = word(direntry::SLOT_SIZE)?;
    let chunk_slots = word(direntry::CHUNK_SLOTS)?;
    let header_off = word(direntry::HEADER_OFF)?;
    let nchunks = word(direntry::NCHUNKS)?;
    let nblocks = word(direntry::NBLOCKS)?;
    out.push_str(&format!(
        ",\"slot_size\":{slot_size},\"chunk_slots\":{chunk_slots},\
         \"header_off\":{header_off},\"nchunks\":{nchunks},\"nblocks\":{nblocks}"
    ));

    let mut chunks = Vec::new();
    for c in 0..(nchunks as usize).min(MAX_CHUNKS_PER_ARENA) {
        chunks.push(word(direntry::CHUNKS + c * 8)?);
    }
    out.push_str(&format!(
        ",\"chunks\":[{}]",
        chunks
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    ));

    let mut blocks = Vec::new();
    for b in 0..(nblocks as usize).min(MAX_BLOCKS_PER_ARENA) {
        let first = word(direntry::BLOCKS + b * 16)?;
        let nslots = word(direntry::BLOCKS + b * 16 + 8)?;
        blocks.push(format!("{{\"first_slot\":{first},\"nslots\":{nslots}}}"));
    }
    out.push_str(&format!(",\"blocks\":[{}]", blocks.join(",")));

    // The arena header, at the file offset the directory records for it.
    let hword = |field: usize| read_word(file, header_off + field as u64);
    let magic = hword(flit_alloc::MAGIC_OFFSET)?;
    let header_slot_size = hword(flit_alloc::SLOT_SIZE_OFFSET)?;
    let high_water = hword(flit_alloc::HIGH_WATER_OFFSET)?;
    let free_head = hword(flit_alloc::FREE_HEAD_OFFSET)?;
    out.push_str(&format!(
        ",\"header\":{{\"magic\":\"{magic:#x}\",\"magic_valid\":{},\
         \"slot_size\":{header_slot_size},\"high_water\":{high_water}",
        magic == flit_alloc::ARENA_MAGIC,
    ));

    let walk = if chunk_slots == 0 || slot_size == 0 {
        FreeWalk {
            depth: 0,
            head_slot: free_head.checked_sub(1),
            truncated: free_head != 0,
            reason: (free_head != 0).then(|| "zero slot size or chunk slot-count".to_string()),
        }
    } else {
        walk_free_list(file, free_head, high_water, slot_size, chunk_slots, &chunks)
    };
    out.push_str(&format!(
        ",\"free_list\":{{\"head_slot\":{},\"depth\":{},\"truncated\":{}",
        walk.head_slot.map_or("null".to_string(), |s| s.to_string()),
        walk.depth,
        walk.truncated,
    ));
    if let Some(reason) = walk.reason {
        out.push_str(&format!(",\"reason\":{}", json_str(&reason)));
    }
    out.push('}');

    let mut roots = Vec::new();
    let mut retained_table_slot = None;
    for r in 0..flit_alloc::ROOT_CAPACITY {
        let base =
            header_off + (flit_alloc::ROOT_TABLE_OFFSET + r * flit_alloc::ROOT_ENTRY_BYTES) as u64;
        let key = read_word(file, base)?;
        if key == 0 {
            continue;
        }
        let slot = read_word(file, base + 8)?;
        if key == flit_alloc::roots::HAMT_RETAINED {
            retained_table_slot = slot.checked_sub(1);
        }
        roots.push(format!(
            "{{\"key\":\"{key:#x}\",\"name\":{},\"slot\":{}}}",
            root_name(key).map_or("null".to_string(), json_str),
            slot.checked_sub(1)
                .map_or("null".to_string(), |s| s.to_string()),
        ));
    }
    out.push_str(&format!(",\"roots\":[{}]", roots.join(",")));

    // A `flit-hamt` retained-root (snapshot) table: read its entries off the
    // file and report the live ones — the snapshots that would survive a
    // crash of the process that wrote this pool.
    if let Some(table_slot) = retained_table_slot {
        let mut entries = Vec::new();
        if let Some(chunk) = table_slot.checked_div(chunk_slots) {
            let chunk = chunk as usize;
            if let Some(&chunk_base) = chunks.get(chunk) {
                let table_off = chunk_base + (table_slot % chunk_slots) * slot_size;
                for s in 0..flit_hamt::RETAINED_CAPACITY {
                    let entry = table_off + (s * flit_hamt::RETAINED_ENTRY_WORDS * 8) as u64;
                    let root = read_word(file, entry)?;
                    let refcount = read_word(file, entry + 8)?;
                    let version = read_word(file, entry + 16)?;
                    if refcount != 0 {
                        entries.push(format!(
                            "{{\"slot\":{s},\"root\":\"{root:#x}\",\
                             \"refcount\":{refcount},\"version\":{version}}}"
                        ));
                    }
                }
            }
        }
        out.push_str(&format!(",\"retained_roots\":[{}]", entries.join(",")));
    }

    out.push_str("}}");
    Ok((out, walk.truncated))
}

fn inspect(path: &Path) -> Result<(String, ExitCode), String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file_bytes = file
        .metadata()
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();

    let magic = read_word(&file, superblock::MAGIC as u64)?;
    let version = read_word(&file, superblock::VERSION as u64)?;
    let commit_word = read_word(&file, superblock::COMMIT as u64)?;
    let base = read_word(&file, superblock::BASE as u64)?;
    let next_free = read_word(&file, superblock::NEXT_FREE as u64)?;
    let arena_count = read_word(&file, superblock::ARENA_COUNT as u64)?;
    let clean_close = read_word(&file, superblock::CLEAN_CLOSE as u64)? == CLEAN_CLOSE_MAGIC;

    let commit_mode = CommitMode::from_compat_word(commit_word)
        .map_or("null".to_string(), |m| json_str(&m.name()));

    let mut doc = format!(
        "{{\"schema\":{},\"path\":{},\"file_bytes\":{file_bytes},\
         \"superblock\":{{\"magic\":\"{magic:#x}\",\"magic_valid\":{},\
         \"version\":{version},\"version_valid\":{},\
         \"commit_word\":{commit_word},\"commit_mode\":{commit_mode},\
         \"recorded_base\":\"{base:#x}\",\"next_free\":{next_free},\
         \"arena_count\":{arena_count},\"clean_close\":{clean_close}}}",
        json_str(INSPECT_SCHEMA),
        json_str(&path.display().to_string()),
        magic == POOL_MAGIC,
        version == POOL_VERSION,
    );

    let mut arenas = Vec::new();
    let mut tripped = false;
    for i in 0..(arena_count as usize).min(MAX_ARENAS) {
        let (arena_doc, guard) = inspect_arena(&file, i)?;
        arenas.push(arena_doc);
        tripped |= guard;
    }
    doc.push_str(&format!(",\"arenas\":[{}]}}", arenas.join(",")));
    if tripped {
        eprintln!(
            "flitctl: free-list guard tripped (see free_list.reason); exiting {GUARD_TRIPPED}"
        );
    }
    let code = if tripped {
        ExitCode::from(GUARD_TRIPPED)
    } else {
        ExitCode::SUCCESS
    };
    Ok((doc, code))
}

// --- stats -----------------------------------------------------------------

type StatsPolicy = FlitPolicy<HashedScheme, SimNvram>;
type StatsMap = HashTable<StatsPolicy, Automatic>;

fn stats(args: &[String]) -> Result<String, String> {
    let mut shards = 2usize;
    let mut ops = 256u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--shards" => shards = val()?.parse().map_err(|_| "bad --shards")?,
            "--ops" => ops = val()?.parse().map_err(|_| "bad --ops")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }

    let server: KvServer<StatsPolicy, StatsMap> =
        KvServer::new_with(ServerConfig::new(shards, 512), |_| {
            FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build())
        });
    let handles = server.handles();

    // A deterministic warm-up mix so every counter family has samples: puts,
    // gets (hit and miss), deletes — then the Stats request itself, through
    // the same pump as everything else.
    let mut slab = Vec::new();
    for k in 0..ops {
        slab.push(match k % 4 {
            0 => Op::Put(k + 1, (k + 1) * 10).encode(),
            1 => Op::Get(k).encode(),
            2 => Op::Get(u64::MAX - 1 - k).encode(),
            _ => Op::Del(k.saturating_sub(2)).encode(),
        });
    }
    slab.push(Op::Stats.encode());

    let mut doc = None;
    for token in 0..slab.len() as u64 {
        let (_served, reply_bytes) = server
            .pump(&handles, &slab, token)
            .map_err(|e| format!("pump: {e:?}"))?;
        if token == slab.len() as u64 - 1 {
            match Reply::decode(&reply_bytes) {
                Ok(Reply::Stats(body)) => {
                    doc = Some(String::from_utf8(body).map_err(|_| "stats body is not UTF-8")?);
                }
                Ok(other) => return Err(format!("expected Stats reply, got {other:?}")),
                Err(e) => return Err(format!("decode stats reply: {e:?}")),
            }
        }
    }
    doc.ok_or_else(|| "no stats reply".to_string())
}

// --- scan ------------------------------------------------------------------

/// Schema tag of the `scan` document.
const SCAN_SCHEMA: &str = "flit-scan-v1";

type ScanMap = flit_hamt::Hamt<StatsPolicy>;

fn scan(args: &[String]) -> Result<String, String> {
    let mut shards = 2usize;
    let mut keys = 64u64;
    let mut prefix = 0u64;
    let mut mask = 0u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--shards" => shards = val()?.parse().map_err(|_| "bad --shards")?,
            "--keys" => keys = val()?.parse().map_err(|_| "bad --keys")?,
            "--prefix" => prefix = val()?.parse().map_err(|_| "bad --prefix")?,
            "--mask" => mask = val()?.parse().map_err(|_| "bad --mask")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }

    let server: KvServer<StatsPolicy, ScanMap> =
        KvServer::new_with(ServerConfig::new(shards, keys.max(1) as usize), |_| {
            FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build())
        });
    let handles = server.handles();

    // Deterministic prefill through the pump, then the Scan itself over the
    // same wire path — value is 10*key so jq can cross-check pairs.
    let mut slab: Vec<Vec<u8>> = (1..=keys).map(|k| Op::Put(k, 10 * k).encode()).collect();
    slab.push(Op::Scan { prefix, mask }.encode());
    let mut pairs = None;
    for token in 0..slab.len() as u64 {
        let (_served, reply_bytes) = server
            .pump(&handles, &slab, token)
            .map_err(|e| format!("pump: {e:?}"))?;
        if token == slab.len() as u64 - 1 {
            match Reply::decode(&reply_bytes) {
                Ok(Reply::Entries(p)) => pairs = Some(p),
                Ok(other) => return Err(format!("expected Entries reply, got {other:?}")),
                Err(e) => return Err(format!("decode scan reply: {e:?}")),
            }
        }
    }
    let pairs = pairs.ok_or_else(|| "no scan reply".to_string())?;
    let entries = pairs
        .iter()
        .map(|(k, v)| format!("{{\"key\":{k},\"value\":{v}}}"))
        .collect::<Vec<_>>()
        .join(",");
    Ok(format!(
        "{{\"schema\":{},\"shards\":{shards},\"keys\":{keys},\
         \"prefix\":{prefix},\"mask\":{mask},\"count\":{},\"entries\":[{entries}]}}",
        json_str(SCAN_SCHEMA),
        pairs.len(),
    ))
}
