//! The traced pass's span recorder: spans are pushed into a vector
//! allocated before the pass starts and written out when the run ends.
//!
//! Every op records one tree rooted at `op` (the real verified query, split
//! at the public-API boundaries) and, where layers are re-driven on the
//! same arguments in a separate pass, a second tree rooted at `shadow`.
//! Only `op` trees count toward coverage.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;
pub const ROOT: &str = "op";

/// Spans written to a trace file; the totals cover every span recorded.
const MAX_SPANS_IN_FILE: usize = 50_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one op share its id.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index for [`close`](Self::close) and
    /// for children to name as their parent.
    pub fn open(&mut self, name: &'static str, parent: u32, op: u32) -> u32 {
        assert!(
            self.spans.len() < self.spans.capacity(),
            "span vector would reallocate inside a timed pass"
        );
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.duration_ns());
            }
        }
        own
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own;
        }
        out
    }

    /// Σ self time over the `op` trees. Self times telescope, so this
    /// equals Σ root durations; it is computed from the spans so that a
    /// child escaping its parent's interval would show.
    pub fn op_tree_self_ns(&self) -> u64 {
        let mut root = vec![NO_PARENT; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root[i] = if s.parent == NO_PARENT {
                i as u32
            } else {
                root[s.parent as usize]
            };
        }
        self.self_times()
            .iter()
            .zip(&root)
            .filter(|(_, &r)| self.spans[r as usize].name == ROOT)
            .map(|(own, _)| own)
            .sum()
    }

    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .take(MAX_SPANS_IN_FILE)
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    ("op", Json::Num(f64::from(s.op))),
                ])
            })
            .collect();
        let totals = self.totals().into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]),
            )
        });
        let doc = Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans_recorded", Json::Num(self.spans.len() as f64)),
            ("totals", Json::obj(totals)),
            ("spans", Json::Arr(spans)),
        ]);
        std::fs::write(path, doc.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(name: &'static str, start: u64, end: u64, parent: u32, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let rec = Recorder {
            epoch: Instant::now(),
            spans: vec![
                fixed("op", 0, 100, NO_PARENT, 0),
                fixed("device_call", 5, 45, 0, 0),
                fixed("reconstruct", 50, 95, 0, 0),
                fixed("shadow", 100, 160, NO_PARENT, 0),
                fixed("otp_share", 100, 130, 3, 0),
                fixed("op", 200, 260, NO_PARENT, 1),
                fixed("device_call", 200, 260, 5, 1),
            ],
        };
        assert_eq!(rec.self_times(), vec![15, 40, 45, 30, 30, 0, 60]);
        let totals = rec.totals();
        assert_eq!(
            totals["op"],
            Total {
                count: 2,
                total_ns: 160,
                self_ns: 15
            }
        );
        assert_eq!(totals["device_call"].total_ns, 100);
        // Shadow trees are left out: 100 + 60 ns of `op` roots.
        assert_eq!(rec.op_tree_self_ns(), 160);
    }

    #[test]
    fn recorder_never_reallocates() {
        let mut rec = Recorder::with_capacity(2);
        let root = rec.open("op", NO_PARENT, 0);
        let child = rec.open("device_call", root, 0);
        rec.close(child);
        rec.close(root);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        let overflow = std::panic::catch_unwind(move || rec.open("op", NO_PARENT, 1));
        assert!(overflow.is_err());
    }
}
