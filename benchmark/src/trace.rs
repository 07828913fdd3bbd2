//! The benchmark's own span recorder: spans are taken from the benchmark's
//! files around calls into each crate, kept in memory, and written as Chrome
//! `trace_event` JSON when the run ends. Spans inside the program are a
//! later change (ROADMAP item 5); nothing here touches `leco_obs` spans.

use std::time::Instant;

/// One recorded interval. `id` is unique per run, `parent` is 0 for a root,
/// `op` ties the spans of one logical operation together.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: u32,
    pub op: u32,
}

/// Per-thread span buffer; buffers are concatenated after the threads join.
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `thread` (< 256) namespaces the ids so buffers merge without clashes.
    pub fn new(epoch: Instant, thread: u32) -> Recorder {
        Recorder {
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished interval and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = (self.thread << 24) | (self.spans.len() as u32 + 1);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            op,
        });
        id
    }

    /// Open a span whose end is not known yet; `close` sets it.
    pub fn open(&mut self, name: &'static str, parent: u32, op: u32) -> u32 {
        let now = self.now_ns();
        self.push(name, parent, op, now, now)
    }

    /// End a span `open` returned (ids carry their position in the buffer).
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[(id & 0x00FF_FFFF) as usize - 1].end_ns = now;
    }

    /// Run `f` inside a span; returns its result and the span's duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, parent, op, start, end);
        (out, end - start)
    }
    /// Run `f` `reps` times, each inside a span; returns the last result and
    /// the shortest duration. For reads that can be repeated: the shortest
    /// of two is the one a scheduler hiccup did not land on.
    pub fn time_best<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> (T, u64) {
        let (mut out, mut best) = self.time(name, parent, op, &mut f);
        for _ in 1..reps {
            let (again, ns) = self.time(name, parent, op, &mut f);
            (out, best) = (again, best.min(ns));
        }
        (out, best)
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (children may overlap each other and may stick
/// out of the parent; both are handled by clipping and merging).
pub fn self_times(spans: &[Span]) -> Vec<(u32, u64)> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Chrome `trace_event` JSON (complete events, microsecond timestamps); each
/// event carries its span's self time.
pub fn chrome_json(spans: &[Span]) -> String {
    let self_ns = self_times(spans);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, (s, (_, self_ns))) in spans.iter().zip(self_ns).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id >> 24,
            s.id,
            s.parent,
            s.op,
            self_ns as f64 / 1e3
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            id,
            parent,
            op: 0,
        }
    }

    fn self_of(spans: &[Span], id: u32) -> u64 {
        self_times(spans).iter().find(|&&(i, _)| i == id).unwrap().1
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)];
        assert_eq!(self_of(&spans, 1), 50); // only the direct child counts
        assert_eq!(self_of(&spans, 2), 40);
        assert_eq!(self_of(&spans, 3), 10);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips_to_the_parent() {
        // Children 10..50 and 30..70 overlap: they cover 10..70 = 60.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)];
        assert_eq!(self_of(&spans, 1), 40);
        // A child sticking out on both sides covers the parent entirely.
        let spans = [span(1, 0, 10, 20), span(2, 1, 0, 30)];
        assert_eq!(self_of(&spans, 1), 0);
        // A child wholly inside an earlier sibling adds nothing.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 90), span(3, 1, 20, 30)];
        assert_eq!(self_of(&spans, 1), 20);
    }

    #[test]
    fn recorder_ids_are_unique_across_threads_and_json_parses() {
        let epoch = Instant::now();
        let (mut a, mut b) = (Recorder::new(epoch, 1), Recorder::new(epoch, 2));
        let root = a.push("round", 0, 0, 0, 10);
        let (_, dur) = a.time("op", root, 7, || std::hint::black_box(3));
        b.push("op", 0, 8, 1, 2);
        let all: Vec<Span> = a.spans.iter().chain(&b.spans).cloned().collect();
        let mut ids: Vec<u32> = all.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        assert_eq!(all[1].parent, root);
        assert_eq!(all[1].end_ns - all[1].start_ns, dur);
        let parsed = crate::json::parse(&chrome_json(&all)).unwrap();
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            3
        );
    }
}
