//! Rendering configurations as `postgresql.conf` fragments (with
//! human-readable units) — the artifact a tuner actually hands to an
//! operator.

use crate::space::{Config, ConfigSpace};
use crate::types::{KnobValue, Unit};

/// Renders one knob value the way `postgresql.conf` expects it, using the
/// knob's unit (`16384` pages -> `'128MB'`, `200` ms -> `'200ms'`).
pub(crate) fn render_value(space: &ConfigSpace, knob_idx: usize, value: &KnobValue) -> String {
    let knob = &space.knobs()[knob_idx];
    if let Some(label) = knob.choice_label(value) {
        return label.to_string();
    }
    match (value, knob.unit) {
        (KnobValue::Int(v), Unit::Pages8k) if *v >= 0 => format_bytes(*v as u64 * 8 * 1024),
        (KnobValue::Int(v), Unit::KiloBytes) if *v >= 0 => format_bytes(*v as u64 * 1024),
        (KnobValue::Int(v), Unit::WalSegments16Mb) if *v >= 0 => {
            format_bytes(*v as u64 * 16 * 1024 * 1024)
        }
        (KnobValue::Int(v), Unit::Millis) => format!("{v}ms"),
        (KnobValue::Int(v), Unit::Micros) => format!("{v}"),
        (KnobValue::Int(v), Unit::Seconds) => format!("{v}s"),
        (KnobValue::Int(v), _) => format!("{v}"),
        (KnobValue::Float(v), _) => format!("{v}"),
        (KnobValue::Cat(i), _) => format!("{i}"),
    }
}

fn format_bytes(bytes: u64) -> String {
    const KB: u64 = 1024;
    const MB: u64 = 1024 * KB;
    const GB: u64 = 1024 * MB;
    if bytes >= GB && bytes.is_multiple_of(GB) {
        format!("{}GB", bytes / GB)
    } else if bytes >= MB && bytes.is_multiple_of(MB) {
        format!("{}MB", bytes / MB)
    } else if bytes >= KB && bytes.is_multiple_of(KB) {
        format!("{}kB", bytes / KB)
    } else {
        format!("{bytes}B")
    }
}

/// Renders a full configuration as a `postgresql.conf` fragment,
/// optionally restricted to knobs that differ from the defaults.
pub fn to_conf(space: &ConfigSpace, config: &Config, only_changed: bool) -> String {
    let defaults = space.default_config();
    let mut out = String::new();
    for (idx, (knob, value)) in space.knobs().iter().zip(config.values()).enumerate() {
        if only_changed && value == &defaults.values()[idx] {
            continue;
        }
        out.push_str(&format!("{} = {}\n", knob.name, render_value(space, idx, value)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::postgres_v9_6;

    #[test]
    fn renders_sizes_with_units() {
        let space = postgres_v9_6();
        let sb = space.index_of("shared_buffers").unwrap();
        assert_eq!(render_value(&space, sb, &KnobValue::Int(16_384)), "128MB");
        assert_eq!(render_value(&space, sb, &KnobValue::Int(131_072)), "1GB");
        let wd = space.index_of("wal_writer_delay").unwrap();
        assert_eq!(render_value(&space, wd, &KnobValue::Int(200)), "200ms");
        let sc = space.index_of("synchronous_commit").unwrap();
        assert_eq!(render_value(&space, sc, &KnobValue::Cat(1)), "off");
    }

    #[test]
    fn default_config_renders_empty_diff() {
        let space = postgres_v9_6();
        let conf = to_conf(&space, &space.default_config(), true);
        assert!(conf.is_empty(), "nothing changed: {conf}");
        let full = to_conf(&space, &space.default_config(), false);
        assert_eq!(full.lines().count(), space.len());
    }

    #[test]
    fn changed_knobs_render_as_a_golden_fragment() {
        let space = postgres_v9_6();
        let mut cfg = space.default_config();
        let sb = space.index_of("shared_buffers").unwrap();
        let cd = space.index_of("commit_delay").unwrap();
        let sc = space.index_of("synchronous_commit").unwrap();
        let ccp = space.index_of("checkpoint_completion_target").unwrap();
        cfg.values_mut()[sb] = KnobValue::Int(524_288);
        cfg.values_mut()[cd] = KnobValue::Int(5_000);
        cfg.values_mut()[sc] = KnobValue::Cat(1);
        cfg.values_mut()[ccp] = KnobValue::Float(0.9);
        let golden = "shared_buffers = 4GB\nsynchronous_commit = off\ncommit_delay = 5000\n\
                      checkpoint_completion_target = 0.9\n";
        assert_eq!(to_conf(&space, &cfg, true), golden);
    }
}
