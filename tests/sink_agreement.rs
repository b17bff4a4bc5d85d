//! Cross-layer invariant: the pipeline model's L1 I-cache and the
//! Figure 4 sweep's 8 KB direct-mapped point are the same cache fed the
//! same fetch stream, so one run teed into both must count the same
//! misses. Table 2 and Figure 3 read the first; Figure 4 reads the second.

use interpreters::archsim::{CacheSweep, PipelineSim, SimConfig};
use interpreters::core::{Language, TeeSink};
use interpreters::workloads::{run_macro, Scale};

#[test]
fn pipeline_icache_misses_equal_the_matching_sweep_point() {
    let cfg = SimConfig::default();
    assert_eq!(
        (cfg.icache_bytes, cfg.icache_assoc, cfg.line_bytes),
        (8 * 1024, 1, 32),
        "the pipeline's L1 I-cache is the sweep's 8 KB direct-mapped point"
    );
    for (language, name) in [
        (Language::Mipsi, "des"),
        (Language::Tclite, "tcltags"),
        (Language::Javelin, "des"),
        (Language::Perlite, "txt2html"),
        (Language::C, "compress"),
    ] {
        let sink = TeeSink::new(PipelineSim::alpha_21064(), CacheSweep::figure4());
        let TeeSink { a: pipeline, b: sweep } = run_macro(language, name, Scale::Test, sink).sink;
        let report = pipeline.report();
        let point = sweep
            .point(cfg.icache_bytes, cfg.icache_assoc)
            .expect("the sweep has an 8 KB direct-mapped point");
        assert_eq!(report.instructions, sweep.instructions(), "{language}/{name}");
        let sweep_misses =
            (point.miss_per_100 * sweep.instructions() as f64 / 100.0).round() as u64;
        assert!(report.icache_misses > 0, "{language}/{name}: a cold cache must miss");
        assert_eq!(report.icache_misses, sweep_misses, "{language}/{name}");
        assert_eq!(report.imiss_per_100(), point.miss_per_100, "{language}/{name}");
    }
}
