//! The ablation probe registry: the small bespoke programs the §3.3
//! ablations measure, kept out of the macro and micro suites.
//!
//! Each probe is an ordinary workload ([`WorkloadKind::Probe`]), so the
//! run-plan engine supervises, journals and reuses it like any other
//! run, and the ablation renderers read only the artifact store.
//!
//! * **Tcl symbol table** — per configuration, a *setup* probe that
//!   populates `table_size` globals plus one `name_len`-character
//!   needle, and a *measured* probe that runs the same setup followed by
//!   a fixed 50-iteration loop reading the needle. The difference of
//!   their memory-model counters is the loop's lookup cost.
//! * **Perl precompilation** — a scalar-only loop (compiled away) and a
//!   hash-heavy loop (run-time translation).
//!
//! Probes are scale-independent: a probe id carries a [`Scale`] only
//! because every [`WorkloadId`] does.
//!
//! [`WorkloadKind::Probe`]: interp_core::WorkloadKind::Probe

use interp_core::{Language, WorkloadId};

use crate::Scale;

/// One Tcl symbol-table configuration and the two probes measuring it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymtabProbe {
    /// Global variables populated before the needle.
    pub table_size: u32,
    /// Length of the needle variable's name.
    pub name_len: usize,
    /// Probe name of the setup-only run.
    pub setup: &'static str,
    /// Probe name of the setup-plus-loop run.
    pub measured: &'static str,
}

/// The symbol-table configurations, from des-like (few globals, short
/// names) to xf-like (many globals, long generated names).
pub const TCL_SYMTAB: [SymtabProbe; 3] = [
    SymtabProbe {
        table_size: 8,
        name_len: 2,
        setup: "symtab-8x2-setup",
        measured: "symtab-8x2",
    },
    SymtabProbe {
        table_size: 64,
        name_len: 12,
        setup: "symtab-64x12-setup",
        measured: "symtab-64x12",
    },
    SymtabProbe {
        table_size: 512,
        name_len: 28,
        setup: "symtab-512x28-setup",
        measured: "symtab-512x28",
    },
];

/// Perl probe: scalar accesses only (compiled away by the front end).
pub const PERL_SCALAR: &str = "precompile-scalar";
/// Perl probe: hash accesses (translated at run time).
pub const PERL_HASH: &str = "precompile-hash";

/// Source of [`PERL_SCALAR`].
const PERL_SCALAR_SRC: &str = r#"$a = 1; $b = 2;
for ($i = 0; $i < 200; $i++) { $c = $a + $b; }"#;

/// Source of [`PERL_HASH`].
const PERL_HASH_SRC: &str = r#"$h{alpha_key} = 1; $h{beta_key} = 2;
for ($i = 0; $i < 200; $i++) { $c = $h{alpha_key} + $h{beta_key}; }"#;

/// The Tcl script that populates `table_size` globals and the needle.
fn tcl_symtab_setup(table_size: u32, name_len: usize) -> String {
    let mut setup = String::new();
    for i in 0..table_size {
        setup.push_str(&format!("set filler_variable_number_{i} {i}\n"));
    }
    setup.push_str(&format!("set {} 1\n", tcl_needle(name_len)));
    setup
}

/// The fixed access loop the measured probe runs after its setup.
fn tcl_symtab_loop(name_len: usize) -> String {
    format!(
        "for {{set i 0}} {{$i < 50}} {{incr i}} {{ set copy ${} }}",
        tcl_needle(name_len)
    )
}

fn tcl_needle(name_len: usize) -> String {
    "v".repeat(name_len.max(1))
}

/// Every probe name registered for `language`.
fn probe_names(language: Language) -> Vec<&'static str> {
    match language {
        Language::Tclite => TCL_SYMTAB
            .iter()
            .flat_map(|p| [p.setup, p.measured])
            .collect(),
        Language::Perlite => vec![PERL_SCALAR, PERL_HASH],
        Language::C | Language::Mipsi | Language::Javelin => Vec::new(),
    }
}

/// Every registered probe as a typed [`WorkloadId`].
pub fn probe_suite(scale: Scale) -> Vec<WorkloadId> {
    Language::ALL
        .into_iter()
        .flat_map(|language| {
            probe_names(language)
                .into_iter()
                .map(move |name| WorkloadId::probe(language, name, scale))
        })
        .collect()
}

/// The source of probe `name` for `language`, if registered.
pub(crate) fn probe_source(language: Language, name: &str) -> Option<String> {
    match language {
        Language::Tclite => TCL_SYMTAB.iter().find_map(|p| {
            if name == p.setup {
                Some(tcl_symtab_setup(p.table_size, p.name_len))
            } else if name == p.measured {
                Some(tcl_symtab_setup(p.table_size, p.name_len) + &tcl_symtab_loop(p.name_len))
            } else {
                None
            }
        }),
        Language::Perlite => match name {
            PERL_SCALAR => Some(PERL_SCALAR_SRC.to_string()),
            PERL_HASH => Some(PERL_HASH_SRC.to_string()),
            _ => None,
        },
        Language::C | Language::Mipsi | Language::Javelin => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{macro_suite, micro_suite};

    #[test]
    fn every_probe_has_a_source_and_stays_out_of_the_suites() {
        let suites: Vec<WorkloadId> = macro_suite(Scale::Test)
            .into_iter()
            .chain(micro_suite(Scale::Test))
            .collect();
        let probes = probe_suite(Scale::Test);
        assert_eq!(probes.len(), 2 * TCL_SYMTAB.len() + 2);
        for id in probes {
            assert!(probe_source(id.language, id.name).is_some(), "{id}");
            assert!(
                !suites
                    .iter()
                    .any(|s| s.language == id.language && s.name == id.name),
                "{id} shadows a suite workload"
            );
        }
        assert_eq!(probe_source(Language::Tclite, "des"), None);
    }

    #[test]
    fn measured_probe_extends_its_setup() {
        for p in TCL_SYMTAB {
            let setup = probe_source(Language::Tclite, p.setup).expect("setup");
            let measured = probe_source(Language::Tclite, p.measured).expect("measured");
            assert!(measured.starts_with(&setup) && measured.len() > setup.len());
        }
    }
}
