//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public functions: name, start, end, parent span and
//! request id. Nothing inside the program is instrumented. Spans stay
//! in memory while the workload runs and are written out once, at exit.
//! A disabled tracer ([`Tracer::off`]) records nothing and calls the
//! wrapped closure directly, so untraced runs share the traced code
//! path without paying for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Request the span belongs to; every span of one request shares it.
    pub request: u64,
    /// Layer-qualified call name, e.g. `router.route`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span and counter store of one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recording tracer whose request ids start after `request_base`
    /// (give each thread its own base so ids never collide).
    pub fn on(origin: Instant, request_base: u64) -> Self {
        Self {
            enabled: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: request_base,
            counters: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::on(Instant::now(), 0)
        }
    }

    /// Starts a new request: spans opened from now on carry its id.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end_ns;
        }
        out
    }

    /// Adds `delta` to counter `name` (recorded at a span boundary).
    pub fn count(&mut self, name: &'static str, delta: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += delta;
        }
    }

    /// Current value of counter `name` (0 when never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Appends another thread's spans and counters; its span ids are
    /// shifted past this tracer's. Both must share one origin.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`]: its
    /// duration minus the part its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent.and_then(|p| child.get_mut(p as usize)) {
                *p += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self times, in milliseconds, of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one CSV row (`id,parent,request,name,
    /// start_ns,end_ns,self_ns`) followed by the counters.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,request,name,start_ns,end_ns,self_ns")?;
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{},{},{},{},{},{},{}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns, t
            )?;
        }
        writeln!(w, "# counters")?;
        for (k, v) in &self.counters {
            writeln!(w, "# {k},{v}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::on(Instant::now(), 0);
        let req = t.next_request();
        let v = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.count("calls", 1.0);
            7
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == req));
        let self_ns = t.self_times_ns();
        assert_eq!(self_ns[0] + spans[1].duration_ns(), spans[0].duration_ns());
        assert!(self_ns[1] >= 2_000_000);
        assert_eq!(t.counter("calls"), 1.0);
    }

    #[test]
    fn off_tracer_records_nothing_and_absorb_shifts_ids() {
        let mut off = Tracer::off();
        assert_eq!(off.span("x", |_| 3), 3);
        off.count("c", 1.0);
        assert!(off.spans().is_empty());
        assert_eq!(off.counter("c"), 0.0);

        let origin = Instant::now();
        let mut a = Tracer::on(origin, 0);
        a.span("a", |_| ());
        let mut b = Tracer::on(origin, 1000);
        b.next_request();
        b.span("b", |t| t.span("c", |_| ()));
        b.count("peak", 4.0);
        a.absorb(b);
        let names: Vec<_> = a.spans().iter().map(|s| (s.id, s.parent, s.name)).collect();
        assert_eq!(
            names,
            vec![(0, None, "a"), (1, None, "b"), (2, Some(1), "c")]
        );
        assert_eq!(a.spans()[1].request, 1001);
        assert_eq!(a.counter("peak"), 4.0);
    }
}
