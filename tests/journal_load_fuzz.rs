//! Fuzz test of the journal loader, the one reader of bytes a crash or
//! a bad disk can damage. Starting from the canonical image of a few
//! records, seeded mutations — single-bit flips anywhere, and splices
//! that copy a whole record or a random byte range to another offset —
//! must never panic the loader, and must never invent a record: every
//! record that loads re-encodes byte-identically to an original. A bit
//! flip is always reported as a defect; a copied whole record is a
//! duplicate key that loses nothing. Resuming a journal over a mutated
//! file republishes a canonical image that reloads clean.

use interpreters::core::{ConsoleDigest, RunArtifact};
use interpreters::guard::Rng64;
use interpreters::runplan::journal::{
    encode_image, encode_record, load_file, record_spans, JournalRecord, JOURNAL_FILE,
};
use interpreters::runplan::{load_bytes, JournalDefectKind, JournalWriter, LoadedJournal};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

const EPOCH: u64 = 0x00F0_2217;
const SEEDS: u64 = 300;

/// Every mutation is loaded in memory; one round of the three kinds in
/// this many also goes through a resume open, which publishes and
/// fsyncs.
const OPEN_EVERY: u64 = 3;

fn originals() -> BTreeMap<u64, JournalRecord> {
    (0..5u64)
        .map(|i| {
            let mut artifact = RunArtifact::empty();
            artifact.program_bytes = 100 + i as usize * 37;
            artifact.console = ConsoleDigest::of(&format!("OK {i}\n").repeat(i as usize + 1));
            let fingerprint = 0x1000_0000_0000_0001 + i * 0x0101_0101;
            let record = JournalRecord {
                fingerprint,
                label: format!("run-{i}"),
                artifact,
            };
            (fingerprint, record)
        })
        .collect()
}

fn encode(record: &JournalRecord) -> Vec<u8> {
    encode_record(EPOCH, record.fingerprint, &record.label, &record.artifact)
}

/// A record set as its encodings in key order (records have no `==`).
fn encodings(records: &BTreeMap<u64, JournalRecord>) -> Vec<Vec<u8>> {
    records.values().map(encode).collect()
}

/// The property every mutation must keep: no record is invented.
fn assert_only_originals(loaded: &LoadedJournal, known: &BTreeSet<Vec<u8>>, what: &str) {
    for record in loaded.records.values() {
        assert!(
            known.contains(&encode(record)),
            "{what}: loaded a record that is not an original ({})",
            record.label
        );
    }
}

fn splice(image: &[u8], from: std::ops::Range<usize>, to: usize) -> Vec<u8> {
    let mut out = image[..to].to_vec();
    out.extend_from_slice(&image[from]);
    out.extend_from_slice(&image[to..]);
    out
}

#[test]
fn mutated_images_load_without_panic_or_invented_records() {
    let records = originals();
    let image = encode_image(&records, EPOCH);
    let known: BTreeSet<Vec<u8>> = encodings(&records).into_iter().collect();
    let spans = record_spans(&image);
    assert_eq!(
        spans.len(),
        records.len(),
        "the pristine image frames every record"
    );
    let clean = load_bytes(&image, EPOCH);
    assert!(clean.defects.is_empty(), "{:?}", clean.defects);
    assert_eq!(encodings(&clean.records), encodings(&records));
    let boundaries: Vec<usize> = spans
        .iter()
        .map(|s| s.start)
        .chain(std::iter::once(image.len()))
        .collect();

    let dir: PathBuf =
        std::env::temp_dir().join(format!("interp-load-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    for seed in 0..SEEDS {
        let mut rng = Rng64::new(seed);
        let (what, mutated) = match seed % 3 {
            0 => {
                let bit = rng.index(0, image.len() * 8);
                let mut bytes = image.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                (format!("seed {seed}: bit {bit} flipped"), bytes)
            }
            1 => {
                let span = *rng.pick(&spans);
                let to = *rng.pick(&boundaries);
                let what = format!("seed {seed}: record at {} copied to {to}", span.start);
                (what, splice(&image, span.start..span.end, to))
            }
            _ => {
                let a = rng.index(0, image.len());
                let b = rng.index(a + 1, image.len() + 1);
                let to = rng.index(0, image.len() + 1);
                (
                    format!("seed {seed}: bytes {a}..{b} copied to {to}"),
                    splice(&image, a..b, to),
                )
            }
        };

        let loaded = load_bytes(&mutated, EPOCH);
        assert_only_originals(&loaded, &known, &what);
        match seed % 3 {
            0 => assert!(!loaded.defects.is_empty(), "{what}: no defect reported"),
            1 => {
                let kinds: Vec<_> = loaded.defects.iter().map(|d| d.kind).collect();
                assert_eq!(kinds, [JournalDefectKind::DuplicateKey], "{what}");
                assert_eq!(
                    encodings(&loaded.records),
                    encodings(&records),
                    "{what}: a record was lost"
                );
            }
            _ => {}
        }

        if (seed / 3) % OPEN_EVERY == 0 {
            let path = dir.join(JOURNAL_FILE);
            std::fs::write(&path, &mutated).expect("plant mutated journal");
            let (writer, opened) = JournalWriter::open(&dir, EPOCH, true).expect("resume open");
            let expected = encodings(&loaded.records);
            assert_eq!(
                encodings(&opened.records),
                expected,
                "{what}: open and load disagree"
            );
            let republished = load_file(&path, EPOCH).expect("reload");
            assert!(
                republished.defects.is_empty(),
                "{what}: {:?}",
                republished.defects
            );
            assert_eq!(encodings(&republished.records), expected, "{what}");
            drop(writer);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
