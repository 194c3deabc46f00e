//! `serve_open`: independent hubs asking an in-process plan server for
//! partition plans and Fig. 3 projections, as an open loop.
//!
//! Requests arrive as a Poisson process at a fixed rate, far below the
//! server's closed-loop capacity, and each is timed from the moment it was
//! due, so a stall also charges the requests queued behind it.  One sender
//! thread writes every request at its due time over `nproc - 1` pipelined
//! loopback connections (at least one), each drained by a receiver thread
//! of its own: `nproc` threads in all, none more.  About one request in
//! ten carries a link context no earlier request used, so it misses the
//! plan cache and reaches the partition optimiser; the rest draw
//! Zipf-popular keys.  The cache starts empty.  `fleet` stays idle.

use crate::stats::{median, quantile, timed_setup};
use crate::{fnv1a64, sys, Args, Metric, Outcome};
use hidwa_core::partition::Objective;
use hidwa_core::serve::codec::{
    decode_response, encode_requests, encode_responses, ModelId, PlanRequest, ProjectionRequest,
    Request, ResponseEnvelope, WireContext, WireLink, MAX_SERVE_FRAME,
};
use hidwa_core::serve::{PlanServer, PlanService, ServeConfig, ServeStats};
use hidwa_core::wire::{append_frame, FrameDecoder};
use hidwa_eqs::body::BodySite;
use hidwa_phy::RadioTechnology;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Requests per second, over all connections.
pub const RATE_PER_S: f64 = 10000.0;
/// Share of requests with a first-seen link context (cache misses).
pub const FRESH_SHARE: f64 = 0.1;
/// Distinct popular keys (one in five a projection query).
const POPULAR_KEYS: usize = 256;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.1;
/// Latency limit of `serve_slo_frac`, from the due time.
pub const SLO: Duration = Duration::from_millis(1);
/// A run whose generator was later than this for most of its requests (at
/// the median) is invalid: it could not keep up, so the load it offered
/// was not the schedule.  Stalls of the host, which delay every thread for
/// some milliseconds and after which the generator catches up, are load
/// the schedule really offered late; they count in the latencies.
pub const LAG_LIMIT: Duration = Duration::from_millis(1);
/// How long a receiver waits for an outstanding answer.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);

/// SplitMix64: the benchmark's own input generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The popular key universe: plan queries over every model × objective ×
/// link (defaults and site-resolved Wi-R, BLE and NFMI links), and one
/// projection per five keys.
fn popular_keys(rng: &mut Rng) -> Vec<Request> {
    let objectives = [
        Objective::LeafEnergy,
        Objective::Latency,
        Objective::EnergyDelayProduct,
    ];
    let mut links = vec![WireLink::WiR, WireLink::Ble];
    for technology in [
        RadioTechnology::WiR,
        RadioTechnology::Ble,
        RadioTechnology::Nfmi,
    ] {
        for site in BodySite::ALL {
            links.push(WireLink::Site(technology, site));
        }
    }
    let mut plan = 0usize;
    let mut keys: Vec<Request> = (0..POPULAR_KEYS)
        .map(|key| {
            if key % 5 == 4 {
                Request::Projection(ProjectionRequest {
                    rate_bps: 1000.0 * (key + 1) as f64,
                })
            } else {
                let request = Request::Plan(PlanRequest {
                    model: ModelId::ALL[plan % 5],
                    context: WireContext::of(links[(plan / 15) % links.len()]),
                    objective: objectives[(plan / 5) % 3],
                });
                plan += 1;
                request
            }
        })
        .collect();
    // Popularity rank order, shuffled by the seed (Fisher-Yates).
    for i in (1..keys.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    keys
}

/// A plan query whose energy-per-bit override no other request uses: each
/// `id` lands in its own quantisation bucket, so it misses the cache.
fn fresh_key(id: u64, rng: &mut Rng) -> Request {
    let objectives = [
        Objective::LeafEnergy,
        Objective::Latency,
        Objective::EnergyDelayProduct,
    ];
    let energy_pj = 20.0 * (1.0 + (id + 1) as f64 / f64::from(1u32 << 19));
    Request::Plan(PlanRequest {
        model: ModelId::ALL[(rng.next_u64() % 5) as usize],
        context: WireContext::of(WireLink::WiR).with_energy_per_bit_pj(energy_pj),
        objective: objectives[(rng.next_u64() % 3) as usize],
    })
}

/// The request sequence and its due times (nanoseconds from the start).
struct Schedule {
    requests: Vec<Request>,
    due_ns: Vec<u64>,
    fresh: usize,
    span: Duration,
}

fn schedule(seed: u64, span: Duration) -> Schedule {
    let mut rng = Rng(seed ^ 0x5E5E_0BE7);
    let keys = popular_keys(&mut rng);
    let weights: Vec<f64> = (0..keys.len())
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for weight in weights {
        acc += weight / total;
        cdf.push(acc);
    }
    let count = (RATE_PER_S * span.as_secs_f64()).round() as usize;
    let mut requests = Vec::with_capacity(count);
    let mut due_ns = Vec::with_capacity(count);
    let mut fresh = 0usize;
    let mut clock_s = 0.0f64;
    for _ in 0..count {
        clock_s += -rng.unit().ln() / RATE_PER_S;
        due_ns.push((clock_s * 1e9) as u64);
        if rng.unit() <= FRESH_SHARE {
            requests.push(fresh_key(fresh as u64, &mut rng));
            fresh += 1;
        } else {
            let u = rng.unit();
            let rank = cdf.partition_point(|&c| c < u).min(keys.len() - 1);
            requests.push(keys[rank]);
        }
    }
    Schedule {
        requests,
        due_ns,
        fresh,
        span,
    }
}

/// A server with its connections and the schedule to offer it.
struct Rig {
    server: PlanServer,
    streams: Vec<TcpStream>,
    schedule: Schedule,
}

/// A warm service behind a bound server, and connections to it.
fn bind() -> Result<(PlanServer, Vec<TcpStream>), String> {
    let server = PlanServer::bind_with("127.0.0.1:0", PlanService::new(), ServeConfig::default())
        .map_err(|e| format!("cannot bind plan server: {e}"))?;
    let connections = sys::nproc().saturating_sub(1).max(1);
    let streams = (0..connections)
        .map(|_| {
            let stream = TcpStream::connect(server.addr())?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
            Ok(stream)
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    Ok((server, streams))
}

/// The set-up the program pays before serving (the warm service, the
/// server and its connections), plus the benchmark's own input schedule.
fn rig(seed: u64, span: Duration) -> Result<Rig, String> {
    let (server, streams) = bind()?;
    Ok(Rig {
        server,
        streams,
        schedule: schedule(seed, span),
    })
}

/// What the sender recorded per request, in schedule order.
struct Sent {
    lag_ns: Vec<u64>,
    encode_ns: Vec<u64>,
    write_ns: Vec<u64>,
}

/// What a receiver recorded per answered request.
struct Received {
    index: usize,
    done_ns: u64,
    read_ns: u64,
    decode_ns: u64,
    /// FNV-1a 64 of the answer envelope's bytes as they arrived, once it
    /// decoded to exactly one answer.
    answer: Result<u64, String>,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).expect("run shorter than 584 years")
}

fn send_all(
    schedule: &Schedule,
    writers: &mut [TcpStream],
    start: Instant,
    traced: bool,
) -> Result<Sent, String> {
    let count = schedule.requests.len();
    let mut sent = Sent {
        lag_ns: Vec::with_capacity(count),
        encode_ns: Vec::with_capacity(count),
        write_ns: Vec::with_capacity(count),
    };
    let mut frame = Vec::with_capacity(256);
    for (index, (request, &due)) in schedule.requests.iter().zip(&schedule.due_ns).enumerate() {
        let now = elapsed_ns(start);
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let begin = elapsed_ns(start);
        let payload = encode_requests(std::slice::from_ref(request));
        let encoded = if traced { elapsed_ns(start) } else { begin };
        frame.clear();
        append_frame(&mut frame, index as u64, &payload);
        writers[index % writers.len()]
            .write_all(&frame)
            .map_err(|e| format!("send failed: {e}"))?;
        sent.lag_ns.push(begin.saturating_sub(due));
        sent.encode_ns.push(encoded - begin);
        sent.write_ns.push(encoded);
    }
    Ok(sent)
}

fn receive_all(
    mut stream: TcpStream,
    expected: usize,
    start: Instant,
    traced: bool,
) -> Vec<Received> {
    let mut decoder = FrameDecoder::new(MAX_SERVE_FRAME);
    let mut scratch = vec![0u8; 64 * 1024];
    let mut frames = Vec::new();
    let mut received = Vec::with_capacity(expected);
    while received.len() < expected {
        let got = match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(got) => got,
        };
        let read_ns = elapsed_ns(start);
        if decoder.feed(&scratch[..got], &mut frames).is_err() {
            break;
        }
        for (tag, payload) in frames.drain(..) {
            let begin = if traced { elapsed_ns(start) } else { read_ns };
            let answer = match decode_response(&payload) {
                Ok(ResponseEnvelope::Answers(answers)) if answers.len() == 1 => Ok(()),
                Ok(other) => Err(format!("unexpected envelope {other:?}")),
                Err(error) => Err(format!("undecodable answer: {error}")),
            };
            let done_ns = elapsed_ns(start);
            let answer = answer.map(|()| fnv1a64(&payload));
            received.push(Received {
                index: usize::try_from(tag).unwrap_or(usize::MAX),
                done_ns,
                read_ns,
                decode_ns: done_ns - begin,
                answer,
            });
        }
    }
    received
}

/// One served schedule: per-request timings and answers, in schedule order.
struct Served {
    sent: Sent,
    answers: Vec<Option<Received>>,
    stats: ServeStats,
    sender_late_ns: u64,
    /// CPU time of the whole process (generator, server and connections)
    /// while the schedule was served, for the report.
    cpu_ms: f64,
}

fn serve(
    server: PlanServer,
    streams: Vec<TcpStream>,
    schedule: &Schedule,
    traced: bool,
) -> Result<Served, String> {
    let count = schedule.requests.len();
    let connections = streams.len();
    let mut writers = streams
        .iter()
        .map(TcpStream::try_clone)
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    let cpu_start = sys::process_cpu_ms();
    let start = Instant::now();
    let (sent, received) = std::thread::scope(|scope| {
        let receivers: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let expected = (c..count).step_by(connections).count();
                scope.spawn(move || receive_all(stream, expected, start, traced))
            })
            .collect();
        let sent = send_all(schedule, &mut writers, start, traced);
        if sent.is_err() {
            for writer in &writers {
                let _ = writer.shutdown(std::net::Shutdown::Both);
            }
        }
        let received: Vec<Received> = receivers
            .into_iter()
            .flat_map(|handle| handle.join().expect("receiver thread panicked"))
            .collect();
        (sent, received)
    });
    let cpu_ms = sys::process_cpu_ms() - cpu_start;
    let sent = sent?;
    let sender_late_ns = sent.write_ns.last().map_or(0, |&end| {
        end.saturating_sub(*schedule.due_ns.last().expect("non-empty schedule"))
    });
    let mut answers: Vec<Option<Received>> = (0..count).map(|_| None).collect();
    for answer in received {
        if let Some(slot) = answers.get_mut(answer.index) {
            *slot = Some(answer);
        }
    }
    let stats = server.service().stats();
    drop(server);
    Ok(Served {
        sent,
        answers,
        stats,
        sender_late_ns,
        cpu_ms,
    })
}

/// Checks every served answer, in schedule order, against what a fresh
/// in-process `PlanService::answer` gives for the same request; appends the
/// time each reference answer took to `service_ns` when asked.  Returns the
/// latencies (µs from the due time) of the requests answered correctly;
/// failures are counted on `outcome`.
fn check_answers(
    schedule: &Schedule,
    served: &Served,
    mut service_ns: Option<&mut Vec<f64>>,
    outcome: &mut Outcome,
) -> Vec<f64> {
    let service = PlanService::new();
    let mut latencies_us = Vec::with_capacity(schedule.requests.len());
    for (index, (request, slot)) in schedule.requests.iter().zip(&served.answers).enumerate() {
        let begin = Instant::now();
        let expected = service.answer(request);
        if let Some(times) = service_ns.as_deref_mut() {
            times.push(begin.elapsed().as_nanos() as f64);
        }
        let verdict = match slot {
            None => Err("was not answered".to_string()),
            Some(received) => match &received.answer {
                Err(error) => Err(error.clone()),
                Ok(digest)
                    if *digest == fnv1a64(&encode_responses(std::slice::from_ref(&expected))) =>
                {
                    Ok(received.done_ns)
                }
                Ok(_) => Err("answer bytes differ from in-process PlanService::answer".into()),
            },
        };
        outcome.check(verdict.is_ok(), || {
            format!("request {index}: {}", verdict.as_ref().unwrap_err())
        });
        if let Ok(done_ns) = verdict {
            let latency_ns = done_ns.saturating_sub(schedule.due_ns[index]);
            latencies_us.push(latency_ns as f64 / 1e3);
        }
    }
    latencies_us
}

/// Marks the run invalid when the generator fell behind its schedule;
/// returns the generator's lag p50 and p99 in µs.
fn check_generator(served: &Served, outcome: &mut Outcome) -> (f64, f64) {
    let lag_us: Vec<f64> = served
        .sent
        .lag_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let lag_p50_us = median(&lag_us);
    if lag_p50_us > LAG_LIMIT.as_secs_f64() * 1e6 {
        outcome.invalid.push(format!(
            "generator lag p50 {lag_p50_us:.1} us exceeds {} us",
            LAG_LIMIT.as_micros()
        ));
    }
    (lag_p50_us, quantile(&lag_us, 0.99))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        attempted_base: "requests sent",
        ..Outcome::default()
    };
    let span = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let (rig, setup) = timed_setup(|| rig(args.seed, span))?;
    outcome.notes.push(format!(
        "serve_open: open loop, Poisson arrivals at {RATE_PER_S} req/s for {:.1} s, {} requests \
         ({} first-seen contexts), {} connection(s) + 1 sender thread, Zipf s={ZIPF_S} over \
         {POPULAR_KEYS} popular keys, SLO {} us from due time",
        span.as_secs_f64(),
        rig.schedule.requests.len(),
        rig.schedule.fresh,
        rig.streams.len(),
        SLO.as_micros()
    ));
    if args.trace {
        traced(rig, &mut outcome)?;
    } else {
        untraced(rig, setup, &mut outcome)?;
    }
    Ok(outcome)
}

/// Requests answered correctly within [`SLO`] of their due time.
fn within_slo(latencies_us: &[f64]) -> usize {
    let slo_us = SLO.as_secs_f64() * 1e6;
    latencies_us.iter().filter(|&&us| us <= slo_us).count()
}

fn untraced(rig: Rig, setup: Metric, outcome: &mut Outcome) -> Result<(), String> {
    let Rig {
        server,
        streams,
        schedule,
    } = rig;
    let served = serve(server, streams, &schedule, false)?;
    let latencies_us = check_answers(&schedule, &served, None, outcome);
    let (lag_p50_us, lag_p99_us) = check_generator(&served, outcome);
    let answered = latencies_us.len();
    let p50_us = median(&latencies_us);
    let within = within_slo(&latencies_us);
    let sent = schedule.requests.len();
    outcome.notes.push(format!(
        "serve_open: generator lag p50 {lag_p50_us:.1} us, p99 {lag_p99_us:.1} us, last send \
         {:.1} us after its due time",
        served.sender_late_ns as f64 / 1e3
    ));
    outcome.named = vec![
        Metric::new("serve_p50_us", p50_us, "us", answered),
        Metric::new("serve_p90_us", quantile(&latencies_us, 0.9), "us", answered),
        Metric::new(
            "serve_p99_us",
            quantile(&latencies_us, 0.99),
            "us",
            answered,
        ),
        Metric::new("serve_slo_frac", within as f64 / sent as f64, "frac", sent),
        Metric::new(
            "serve_cpu_us",
            served.cpu_ms * 1e3 / sent as f64,
            "us",
            sent,
        ),
    ];
    outcome.metrics = vec![
        setup,
        Metric::new("peak_rss_mb", sys::peak_rss_mb()?, "MB", 1),
        Metric::new("op_p50_ms", p50_us / 1e3, "ms", answered),
        Metric::new(
            "work_per_s",
            within as f64 / schedule.span.as_secs_f64(),
            "1/s",
            sent,
        ),
    ];
    Ok(())
}

/// Serves the schedule twice on fresh servers, untraced and then traced,
/// and splits each request's round trip into codec, service and wire time.
fn traced(rig: Rig, outcome: &mut Outcome) -> Result<(), String> {
    let Rig {
        server,
        streams,
        schedule,
    } = rig;
    let untraced = serve(server, streams, &schedule, false)?;
    let mut service_ns = Vec::with_capacity(schedule.requests.len());
    let untraced_us = check_answers(&schedule, &untraced, Some(&mut service_ns), outcome);
    check_generator(&untraced, outcome);

    let (server, streams) = bind()?;
    let traced = serve(server, streams, &schedule, true)?;
    let traced_us = check_answers(&schedule, &traced, None, outcome);
    let (_, lag_p99_us) = check_generator(&traced, outcome);

    let mut decode_ns = Vec::with_capacity(traced.answers.len());
    let mut rtt_ns = Vec::with_capacity(traced.answers.len());
    let mut wire_ns = Vec::with_capacity(traced.answers.len());
    for (index, received) in traced.answers.iter().enumerate() {
        if let Some(received) = received {
            let rtt = received.read_ns.saturating_sub(traced.sent.write_ns[index]) as f64;
            decode_ns.push(received.decode_ns as f64);
            rtt_ns.push(rtt);
            wire_ns.push(rtt - service_ns[index]);
        }
    }
    let encode_ns: Vec<f64> = traced.sent.encode_ns.iter().map(|&ns| ns as f64).collect();
    let untraced_p50 = median(&untraced_us);
    let traced_p50 = median(&traced_us);
    let stats = traced.stats;
    let answered = rtt_ns.len();
    let sent = schedule.requests.len();
    outcome.notes.push(format!(
        "serve_open traced: {sent} requests served untraced, then the same schedule traced on a \
         fresh server; service times from a fresh in-process PlanService"
    ));
    outcome.metrics = vec![
        Metric::new("serve.codec.encode_ns", median(&encode_ns), "ns", sent),
        Metric::new("serve.codec.decode_ns", median(&decode_ns), "ns", answered),
        Metric::new("serve.service_ns.p50", median(&service_ns), "ns", sent),
        Metric::new(
            "serve.service_ns.p99",
            quantile(&service_ns, 0.99),
            "ns",
            sent,
        ),
        Metric::new("serve.wire_ns.p50", median(&wire_ns), "ns", answered),
        Metric::new("serve.rtt_ns.p50", median(&rtt_ns), "ns", answered),
        Metric::new("serve.cache.hit_rate", stats.hit_rate(), "frac", 1),
        Metric::new("serve.cache.hits", stats.cache_hits as f64, "count", 1),
        Metric::new("serve.cache.misses", stats.cache_misses as f64, "count", 1),
        Metric::new(
            "serve.cache.evictions",
            stats.cache_evictions as f64,
            "count",
            1,
        ),
        Metric::new("serve.cache.entries", stats.cached_plans as f64, "count", 1),
        Metric::new("serve.gen.lag_us.p99", lag_p99_us, "us", sent),
        Metric::new("serve.requests", sent as f64, "count", 1),
        Metric::new(
            "serve.untraced_p50_us",
            untraced_p50,
            "us",
            untraced_us.len(),
        ),
        Metric::new(
            "serve.untraced_p99_us",
            quantile(&untraced_us, 0.99),
            "us",
            untraced_us.len(),
        ),
        Metric::new(
            "serve.untraced_slo_frac",
            within_slo(&untraced_us) as f64 / sent as f64,
            "frac",
            sent,
        ),
        Metric::new("serve.traced_p50_us", traced_p50, "us", traced_us.len()),
        Metric::new(
            "trace.overhead_ms",
            (traced_p50 - untraced_p50) / 1e3,
            "ms",
            2,
        ),
        Metric::new("trace.reps", 1.0, "count", 1),
    ];
    Ok(())
}
