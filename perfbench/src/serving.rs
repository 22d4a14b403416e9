//! The serving workloads: a loopback [`EvalServer`] in this process,
//! driven by closed-loop clients over protocol v2 or v1, with every
//! response byte-checked against an offline single-threaded
//! [`EvalService::serve_jsonl`] of the same seeded requests.

use crate::report::Report;
use crate::stats::{self, Tally};
use crate::trace::Trace;
use countertrust::methods::MethodOptions;
use countertrust::serve::net::{EvalServer, NetOptions, NetStats, ServerHandle};
use countertrust::serve::proto::V2Client;
use countertrust::serve::{EvalRequest, EvalService, PipelineOptions, RequestLatency};
use ct_bench::streams::{StreamConfig, StreamGenerator, StreamPattern};
use ct_bench::workload_specs;
use ct_sim::MachineModel;
use ct_workloads::Workload;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client socket timeout: far above any response time, so only a hung
/// server trips it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Time slices the throughput of a v2 run is split into; the run
/// reports their median rate, so one stalled slice moves it little.
const RATE_SLICES: usize = 20;

/// Requests whose latency a run must collect so that its p99 has ten
/// samples beyond it.
const MIN_LATENCY_SAMPLES: usize = 1_000;

/// How many times a run sets up before it measures: at least `min`
/// times and until `seconds` have passed, so that the reported median
/// set-up spans more than one moment of a noisy host.
#[derive(Debug, Clone, Copy)]
pub struct Setups {
    pub min: usize,
    pub seconds: f64,
}

impl Setups {
    /// One set-up, then measure.
    pub const ONE: Self = Self {
        min: 1,
        seconds: 0.0,
    };

    /// Whether `done` set-ups, the first started at `first`, suffice.
    #[must_use]
    pub fn enough(&self, done: usize, first: Instant) -> bool {
        done >= self.min && first.elapsed().as_secs_f64() >= self.seconds
    }
}

/// How the clients load the server.
#[derive(Debug, Clone, Copy)]
pub enum Client {
    /// Keep-alive v2 connections, each with `window` requests
    /// outstanding: a new request leaves as soon as a response arrives.
    V2 { connections: usize, window: usize },
    /// A batch client: one v1 connection per `batch` requests, which it
    /// writes at once, half-closes, then reads every response of.
    V1Batch { batch: usize },
}

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Serving {
    /// Workload size scale of the catalog.
    pub scale: f64,
    /// The catalog: kernels or every workload.
    pub catalog: fn(f64) -> Vec<Workload>,
    pub pattern: StreamPattern,
    /// Distinct requests per connection; clients replay them in a cycle.
    pub cycle: usize,
    /// Profile-cache capacity (`0` = unbounded).
    pub capacity: usize,
    pub client: Client,
}

/// One connection's seeded requests, their wire lines and the
/// reference response line of each.
pub struct Stream {
    pub requests: Vec<EvalRequest>,
    pub lines: Vec<String>,
    pub reference: Vec<String>,
}

/// One answered request of a traced run.
#[derive(Debug, Clone, Copy)]
struct Sample {
    sent: Instant,
    received: Instant,
    /// Server-side stamps, when the response carried them.
    stamps: Option<RequestLatency>,
}

/// One client's measurements. Latencies are `f32` microseconds and
/// completions per-slice counts, so the harness's own memory stays
/// small next to the server's and barely grows with throughput; whole
/// samples are kept only on traced runs, for their spans.
#[derive(Default)]
struct Conn {
    latencies_us: Vec<f32>,
    slices: [u64; RATE_SLICES],
    samples: Vec<Sample>,
    tally: Tally,
}

/// The timed window of a run.
#[derive(Debug, Clone, Copy)]
struct Window {
    begin: Instant,
    deadline: Instant,
}

impl Window {
    fn new(seconds: f64) -> Self {
        let begin = Instant::now();
        Self {
            begin,
            deadline: begin + Duration::from_secs_f64(seconds),
        }
    }

    fn slice_seconds(&self) -> f64 {
        (self.deadline - self.begin).as_secs_f64() / RATE_SLICES as f64
    }

    /// The slice a completion at `at` falls in; `None` after the window.
    fn slice_of(&self, at: Instant) -> Option<usize> {
        let offset = at.saturating_duration_since(self.begin).as_secs_f64();
        (at < self.deadline)
            .then(|| ((offset / self.slice_seconds()) as usize).min(RATE_SLICES - 1))
    }

    /// Completion rate of each of the window's slices.
    fn rates(&self, slices: &[u64; RATE_SLICES]) -> Vec<f64> {
        slices
            .iter()
            .map(|&c| c as f64 / self.slice_seconds())
            .collect()
    }
}

/// Everything one measured run produced.
pub struct Run {
    pub setup_s: Vec<f64>,
    /// The rates `ops_per_s` is the median of: per time slice, or per
    /// batch exchange.
    pub rates: Vec<f64>,
    pub ops_per_s: f64,
    pub latencies_ms: Vec<f64>,
    pub tally: Tally,
    pub cache: countertrust::CacheStats,
    /// Traced runs only: the request spans with server-side children.
    pub trace: Option<Trace>,
    /// Traced runs only: queue, build and eval micros per response.
    pub stamps: Vec<RequestLatency>,
}

impl Serving {
    fn connections(&self) -> usize {
        match self.client {
            Client::V2 { connections, .. } => connections,
            Client::V1Batch { .. } => 1,
        }
    }

    /// Requests a pipeline or v2 burst typically holds at once.
    #[must_use]
    pub fn burst(&self) -> usize {
        match self.client {
            Client::V2 { window, .. } => window,
            Client::V1Batch { .. } => PipelineOptions::default().chunk,
        }
    }

    /// The service every run of this workload serves from.
    #[must_use]
    pub fn service(&self, workloads: &[Workload]) -> EvalService {
        EvalService::new(&MachineModel::paper_machines(), &workload_specs(workloads))
            .method_options(MethodOptions::fast())
            .threads(2)
            .cache_capacity(self.capacity)
    }

    /// Generates each connection's request cycle from `seed` and its
    /// reference responses: each half of a cycle is answered by its own
    /// offline single-threaded service, the two halves side by side.
    /// Runs before any timing starts.
    #[must_use]
    pub fn streams(&self, seed: u64) -> Vec<Stream> {
        let workloads = (self.catalog)(self.scale);
        let machines = MachineModel::paper_machines();
        (0..self.connections())
            .map(|c| {
                let config = StreamConfig {
                    pattern: self.pattern,
                    requests: self.cycle,
                    seed: seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(c as u64),
                    runs: 1,
                };
                let requests =
                    StreamGenerator::new(&machines, &workloads, &MethodOptions::fast(), &config)
                        .take(self.cycle);
                let lines = requests
                    .iter()
                    .map(|r| serde_json::to_string(r).expect("requests serialize") + "\n")
                    .collect();
                let halves: Vec<String> = std::thread::scope(|scope| {
                    let jobs: Vec<_> = requests
                        .chunks(self.cycle.div_ceil(2))
                        .map(|half| {
                            scope.spawn(|| {
                                EvalService::new(&machines, &workload_specs(&workloads))
                                    .method_options(MethodOptions::fast())
                                    .threads(1)
                                    .serve_jsonl(half)
                            })
                        })
                        .collect();
                    jobs.into_iter()
                        .map(|j| j.join().expect("reference thread"))
                        .collect()
                });
                let reference = halves
                    .iter()
                    .flat_map(|h| h.split_inclusive('\n'))
                    .map(str::to_string)
                    .collect();
                Stream {
                    requests,
                    lines,
                    reference,
                }
            })
            .collect()
    }

    /// Sets up as often as `setups` asks and measures for `seconds` after
    /// the last set-up. Set-up covers catalog assembly, service construction,
    /// listener bind, client handshakes and a warm-up pass that sends
    /// every distinct pair of the cycle once (one full round of
    /// requests for the batch client).
    pub fn run(&self, streams: &[Stream], setups: Setups, seconds: f64, traced: bool) -> Run {
        let mut setup_s = Vec::new();
        let first = Instant::now();
        loop {
            let started = Instant::now();
            let workloads = (self.catalog)(self.scale);
            let service = self.service(&workloads);
            let pipeline = PipelineOptions::new().record_latency(traced);
            let server = EvalServer::listen("127.0.0.1:0", NetOptions::new().pipeline(pipeline))
                .expect("bind a loopback port");
            let addr = server.local_addr();
            let handle = server.handle();
            let ((setup, run), net) = std::thread::scope(|scope| {
                let serving = scope.spawn(|| server.serve(&service));
                let stop = StopOnDrop(&handle);
                let last = || setups.enough(setup_s.len() + 1, first);
                let measured = self.client_session(addr, streams, started, seconds, traced, &last);
                drop(stop);
                (
                    measured,
                    serving.join().expect("the accept loop does not panic"),
                )
            });
            setup_s.push(setup);
            if let Some(mut run) = run {
                account_server(&mut run.tally, net);
                run.setup_s = std::mem::take(&mut setup_s);
                run.cache = service.cache_stats();
                return run;
            }
        }
    }

    /// Connects, warms up, and, when `measure` says so once set-up is
    /// done, runs the timed window. Returns the set-up seconds and the
    /// measured run.
    fn client_session(
        &self,
        addr: SocketAddr,
        streams: &[Stream],
        started: Instant,
        seconds: f64,
        traced: bool,
        measure: &dyn Fn() -> bool,
    ) -> (f64, Option<Run>) {
        match self.client {
            Client::V2 { window, .. } => {
                let mut warm = Tally::default();
                let mut clients: Vec<V2Client> = streams
                    .iter()
                    .map(|stream| {
                        let mut client = V2Client::connect(addr).expect("v2 handshake");
                        client
                            .set_timeout(Some(CLIENT_TIMEOUT))
                            .expect("socket timeout");
                        let mut order = first_of_each_pair(&stream.requests).into_iter();
                        warm.merge(
                            drive_v2(&mut client, stream, window, &mut order, None, traced).tally,
                        );
                        client
                    })
                    .collect();
                let setup = started.elapsed().as_secs_f64();
                let run = measure().then(|| {
                    let timed = Window::new(seconds);
                    let conns: Vec<Conn> = std::thread::scope(|scope| {
                        let workers: Vec<_> = clients
                            .iter_mut()
                            .zip(streams)
                            .map(|(client, stream)| {
                                scope.spawn(move || {
                                    let k = stream.lines.len();
                                    let mut order = (0..).map(move |i| i % k);
                                    drive_v2(
                                        client,
                                        stream,
                                        window,
                                        &mut order,
                                        Some(timed),
                                        traced,
                                    )
                                })
                            })
                            .collect();
                        workers
                            .into_iter()
                            .map(|w| w.join().expect("client thread"))
                            .collect()
                    });
                    let mut slices = [0; RATE_SLICES];
                    for conn in &conns {
                        for (total, n) in slices.iter_mut().zip(conn.slices) {
                            *total += n;
                        }
                    }
                    Run::from_conns(timed.begin, conns, warm, timed.rates(&slices), traced)
                });
                for client in clients {
                    let _ = client.bye();
                }
                (setup, run)
            }
            Client::V1Batch { batch } => {
                let stream = &streams[0];
                let k = stream.lines.len();
                let pairs = first_of_each_pair(&stream.requests).len();
                let mut warm = Conn::default();
                exchange_batch(addr, stream, 0, pairs, &mut warm, traced);
                let setup = started.elapsed().as_secs_f64();
                let run = measure().then(|| {
                    let begin = Instant::now();
                    let deadline = begin + Duration::from_secs_f64(seconds);
                    let cap = begin + Duration::from_secs_f64(seconds * 2.0);
                    let mut conn = Conn::default();
                    let mut rates = Vec::new();
                    let mut next = pairs % k;
                    let mut now = begin;
                    while now < deadline
                        || (conn.latencies_us.len() < MIN_LATENCY_SAMPLES && now < cap)
                    {
                        let answered = conn.latencies_us.len();
                        exchange_batch(addr, stream, next, batch, &mut conn, traced);
                        let done = Instant::now();
                        rates.push(
                            (conn.latencies_us.len() - answered) as f64
                                / (done - now).as_secs_f64(),
                        );
                        next = (next + batch) % k;
                        now = done;
                    }
                    Run::from_conns(begin, vec![conn], warm.tally, rates, traced)
                });
                (setup, run)
            }
        }
    }
}

impl Run {
    /// Gathers the clients' measurements; set-up times and cache
    /// counters are filled in once the server has stopped.
    fn from_conns(
        begin: Instant,
        conns: Vec<Conn>,
        warm: Tally,
        rates: Vec<f64>,
        traced: bool,
    ) -> Self {
        let mut tally = warm;
        let mut samples = Vec::new();
        let mut latencies_ms = Vec::new();
        for conn in conns {
            tally.merge(conn.tally);
            samples.extend(conn.samples);
            latencies_ms.extend(conn.latencies_us.iter().map(|&us| f64::from(us) / 1e3));
        }
        samples.sort_by_key(|s| s.sent);
        Self {
            setup_s: Vec::new(),
            ops_per_s: stats::median(&rates).unwrap_or(0.0),
            rates,
            latencies_ms: stats::sorted(latencies_ms),
            tally,
            cache: countertrust::CacheStats::default(),
            trace: traced.then(|| request_spans(begin, &samples)),
            stamps: samples.iter().filter_map(|s| s.stamps).collect(),
        }
    }
}

/// Request spans under one root, each with its server-side queue,
/// build and eval stamps as children laid out back to back before the
/// response arrived, so a request's self time is what the client saw
/// beyond what the server accounted for.
fn request_spans(begin: Instant, samples: &[Sample]) -> Trace {
    let mut trace = Trace::new(begin);
    let end = samples.iter().map(|s| s.received).max().unwrap_or(begin);
    let root = trace.record("traced_run", 0, trace.ns(end), None, None);
    for (id, s) in samples.iter().enumerate() {
        let id = id as u64;
        let (start, received) = (trace.ns(s.sent), trace.ns(s.received));
        let request = trace.record("request", start, received, Some(root), Some(id));
        if let Some(l) = s.stamps {
            let mut at = received;
            for (name, us) in [
                ("server.eval", l.eval_us),
                ("server.build", l.build_us),
                ("server.queue", l.queue_us),
            ] {
                let from = at.saturating_sub(us * 1_000).max(start);
                trace.record(name, from, at, Some(request), Some(id));
                at = from;
            }
        }
    }
    trace
}

/// Indices of the first request on each distinct pair, in cycle order.
pub fn first_of_each_pair(requests: &[EvalRequest]) -> Vec<usize> {
    let mut seen: Vec<(&str, &str)> = Vec::new();
    let mut order = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        let key = (r.machine.as_str(), r.workload.as_str());
        if !seen.contains(&key) {
            seen.push(key);
            order.push(i);
        }
    }
    order
}

/// Splits a response line of a latency-recording server into the line
/// the default server would have sent and its stamps.
fn strip_stamps(line: &str) -> (String, Option<RequestLatency>) {
    const KEY: &str = ",\"latency\":";
    match line.rfind(KEY) {
        Some(at) => {
            let tail = line[at + KEY.len()..].trim_end_matches('\n');
            let stamps = tail
                .strip_suffix('}')
                .and_then(|s| serde_json::from_str(s).ok());
            (format!("{}}}\n", &line[..at]), stamps)
        }
        None => (line.to_string(), None),
    }
}

/// Checks one response against the reference and records its timing.
fn answer(
    conn: &mut Conn,
    text: &str,
    want: &str,
    sent: Instant,
    traced: bool,
    timed: Option<Window>,
) {
    let received = Instant::now();
    #[allow(clippy::cast_possible_truncation)]
    conn.latencies_us
        .push(((received - sent).as_nanos() as f64 / 1e3) as f32);
    if let Some(slice) = timed.and_then(|w| w.slice_of(received)) {
        conn.slices[slice] += 1;
    }
    if traced {
        let (body, stamps) = strip_stamps(text);
        conn.tally.check(&body, want);
        conn.samples.push(Sample {
            sent,
            received,
            stamps,
        });
    } else {
        conn.tally.check(text, want);
    }
}

/// Keeps `window` requests outstanding on one v2 connection, taking
/// cycle indices from `order` until it runs out or the `timed` window
/// ends, then drains what is outstanding.
fn drive_v2(
    client: &mut V2Client,
    stream: &Stream,
    window: usize,
    order: &mut dyn Iterator<Item = usize>,
    timed: Option<Window>,
    traced: bool,
) -> Conn {
    let mut conn = Conn::default();
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
    let send = |client: &mut V2Client, i: usize| -> std::io::Result<Instant> {
        let sent = Instant::now();
        client.send_line(0, &stream.lines[i])?;
        client.flush()?;
        Ok(sent)
    };
    let mut open = true;
    let mut refill = |client: &mut V2Client,
                      inflight: &mut VecDeque<(usize, Instant)>,
                      conn: &mut Conn| {
        while open && inflight.len() < window && timed.is_none_or(|w| Instant::now() < w.deadline) {
            let Some(i) = order.next() else {
                open = false;
                break;
            };
            match send(client, i) {
                Ok(sent) => inflight.push_back((i, sent)),
                Err(e) => {
                    conn.tally.lost(1, || format!("send failed: {e}"));
                    open = false;
                }
            }
        }
    };
    refill(client, &mut inflight, &mut conn);
    while let Some(&(i, sent)) = inflight.front() {
        match client.recv() {
            Ok(Some((_, text))) => {
                inflight.pop_front();
                answer(&mut conn, &text, &stream.reference[i], sent, traced, timed);
                refill(client, &mut inflight, &mut conn);
            }
            Ok(None) => {
                conn.tally.lost(inflight.len() as u64, || {
                    "server closed the connection".into()
                });
                break;
            }
            Err(e) => {
                conn.tally
                    .lost(inflight.len() as u64, || format!("receive failed: {e}"));
                break;
            }
        }
    }
    conn
}

/// One v1 batch exchange of `batch` cycle requests starting at `start`.
fn exchange_batch(
    addr: SocketAddr,
    stream: &Stream,
    start: usize,
    batch: usize,
    conn: &mut Conn,
    traced: bool,
) {
    let k = stream.lines.len();
    let wire: String = (start..start + batch)
        .map(|i| stream.lines[i % k].as_str())
        .collect();
    let sent = Instant::now();
    let mut got = 0;
    let result = (|| -> std::io::Result<()> {
        let socket = TcpStream::connect(addr)?;
        socket.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        socket.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        (&socket).write_all(wire.as_bytes())?;
        socket.shutdown(Shutdown::Write)?;
        let mut reader = BufReader::new(&socket);
        let mut line = String::new();
        while got < batch {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            answer(
                conn,
                &line,
                &stream.reference[(start + got) % k],
                sent,
                traced,
                None,
            );
            got += 1;
        }
        Ok(())
    })();
    let missing = (batch - got) as u64;
    match result {
        Ok(()) => conn.tally.lost(missing, || {
            format!("{missing} of {batch} responses missing")
        }),
        Err(e) => conn.tally.lost(missing, || format!("exchange failed: {e}")),
    }
}

/// Shuts a server down when dropped, so a panicking client still lets
/// the scope that serves it end instead of waiting on `accept`.
pub struct StopOnDrop<'a>(pub &'a ServerHandle);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Folds the server's connection failures into the run's tally.
fn account_server(tally: &mut Tally, net: Result<NetStats, countertrust::serve::net::AcceptError>) {
    match net {
        Ok(net) => {
            tally.fail_attempted(net.io_errors, || {
                format!("{} server connection errors", net.io_errors)
            });
            tally.fail_attempted(net.worker_panics, || {
                format!("{} server worker panics", net.worker_panics)
            });
        }
        Err(e) => tally.lost(1, || format!("accept loop failed: {e}")),
    }
}

/// Adds the end-to-end metrics of a measured run.
pub fn end_to_end(report: &mut Report, run: &Run) {
    report.add("ops_per_s", run.ops_per_s, "1/s");
    report.latency(&run.latencies_ms, "request");
    report.add_opt("setup_s", stats::median(&run.setup_s), "s");
    report.note_rates(&run.rates, run.setup_s.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_strip_back_to_the_default_bytes() {
        let plain = "{\"request\":{\"m\":1},\"stats\":null,\"error\":null}\n";
        let stamped = "{\"request\":{\"m\":1},\"stats\":null,\"error\":null,\"latency\":{\"queue_us\":3,\"build_us\":2,\"eval_us\":41}}\n";
        let (body, stamps) = strip_stamps(stamped);
        assert_eq!(body, plain);
        assert_eq!(
            stamps,
            Some(RequestLatency {
                queue_us: 3,
                build_us: 2,
                eval_us: 41
            })
        );
        assert_eq!(strip_stamps(plain), (plain.to_string(), None));
    }

    #[test]
    fn the_rate_is_the_median_slice() {
        let window = Window::new(10.0);
        let (begin, deadline) = (window.begin, window.deadline);
        // 20 completions per second, plus a burst of 100 in one slice
        // and completions after the deadline, which do not count.
        let mut at: Vec<Instant> = (0..200)
            .map(|i| begin + Duration::from_millis(i * 50))
            .collect();
        at.extend((0..100).map(|_| begin + Duration::from_millis(3_500)));
        at.extend((0..7).map(|_| deadline + Duration::from_millis(1)));
        let mut slices = [0; RATE_SLICES];
        for slice in at.iter().filter_map(|&t| window.slice_of(t)) {
            slices[slice] += 1;
        }
        assert_eq!(slices.iter().sum::<u64>(), 300);
        assert_eq!(stats::median(&window.rates(&slices)), Some(20.0));
    }
}
