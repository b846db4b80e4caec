//! The ECO-service phase: legalized designs served by an in-process `EcoServer` (default
//! supervised configuration plus a journal) and driven by one closed-loop client over the
//! Unix socket. Each served design is then checked bit for bit against an in-process
//! `EcoEngine` replay of the same delta stream.

use crate::stats;
use crate::{Check, Metrics, SpanLedger, SplitMix64};
use flex_eco::json::Json;
use flex_eco::proto::{decode_request, encode_report, encode_request};
use flex_eco::{
    DeltaKind, EcoClient, EcoDelta, EcoEngine, EcoServer, Journal, JournalConfig, Request,
    ServerConfig,
};
use flex_mgl::config::MglConfig;
use flex_obs::SpanEvent;
use flex_placement::cell::CellId;
use flex_placement::layout::Design;
use std::path::Path;
use std::time::Instant;

/// Everything the phase measured, pooled over the served designs.
#[derive(Default)]
pub struct EcoRun {
    /// Seconds each server took to come up: engine build, journal creation, server
    /// start, client connect.
    pub bringup_s: Vec<f64>,
    /// Client-observed latency of each apply request, microseconds.
    pub client_us: Vec<f64>,
    /// The engine's own latency of each apply, as its reply reports it.
    pub engine_us: Vec<f64>,
    /// Delta kind of each request.
    pub kinds: Vec<DeltaKind>,
    /// Seconds the closed loops ran.
    pub loop_s: f64,
    /// `EcoEngine::apply` latency of each delta in the in-process replay.
    pub apply_us: Vec<f64>,
    /// Encode + decode cost of each request and its reply, microseconds (traced runs).
    pub codec_us: Vec<f64>,
    /// Spans recorded during the in-process replays (traced runs).
    pub replay_spans: Vec<SpanEvent>,
    /// Scrub slices the servers' scrubbers audited.
    pub scrub_slices: u64,
    /// Apply batches the servers' engines counted.
    pub batches: u64,
    /// Epoch-store re-captures the servers' engines counted.
    pub store_recaptures: u64,
    /// Bytes the servers' write-ahead journals hold.
    pub wal_bytes: u64,
}

/// The next delta of the 80/8/8/4 move/insert/resize/remove mix, addressing live cells.
fn next_delta(rng: &mut SplitMix64, live: &[CellId], sites: i64, rows: i64) -> (EcoDelta, usize) {
    let gx = rng.unit() * sites as f64;
    let gy = rng.unit() * rows as f64;
    let at = rng.below(live.len() as u64) as usize;
    let width = 2 + rng.below(6) as i64;
    let height = 1 + rng.below(2) as i64;
    let delta = match rng.below(100) {
        0..=79 => EcoDelta::MoveCell {
            id: live[at],
            gx,
            gy,
        },
        80..=87 => EcoDelta::InsertCell {
            width,
            height,
            gx,
            gy,
        },
        88..=95 => EcoDelta::ResizeCell {
            id: live[at],
            width,
            height,
        },
        _ => EcoDelta::RemoveCell { id: live[at] },
    };
    (delta, at)
}

/// Every field of every cell, floats by bit pattern: two designs with equal fingerprints
/// are bit-identical.
pub fn fingerprint(design: &Design) -> Vec<[u64; 9]> {
    let mut out = vec![[
        design.num_sites_x as u64,
        design.num_rows as u64,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
    ]];
    out.extend(design.cells.iter().map(|c| {
        [
            c.id.0 as u64,
            c.width as u64,
            c.height as u64,
            c.gx.to_bits(),
            c.gy.to_bits(),
            c.x as u64,
            c.y as u64,
            u64::from(c.fixed) | u64::from(c.legalized) << 1,
            c.row_parity.map_or(u64::MAX, u64::from),
        ]
    }));
    out
}

fn num(json: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(json, |j, key| j.get(key))?.as_f64()
}

impl EcoRun {
    /// Serve `design` (already legalized): bring an `EcoServer` up over it with its own
    /// journal, send `deltas` single-delta requests drawn from `seed` from one client, read
    /// the server's counters and shut it down. Then check the design the server returns:
    /// legal, and bit-identical to an in-process replay of the same stream. With a ledger,
    /// the replay's spans are kept for the layer report.
    #[allow(clippy::too_many_arguments)]
    pub fn serve(
        &mut self,
        design: &Design,
        cfg: &MglConfig,
        seed: u64,
        deltas: usize,
        workdir: &Path,
        ledger: Option<&mut SpanLedger>,
        check: &mut Check,
    ) -> std::io::Result<()> {
        let journal_dir = workdir.join("journal");
        let socket = workdir.join("eco.sock");
        let start = Instant::now();
        let engine = EcoEngine::new(design.clone(), cfg.clone())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let journal = Journal::create(
            JournalConfig::new(&journal_dir),
            engine.design(),
            engine.stats(),
            0,
        )?;
        let server = EcoServer::start_with(
            engine,
            &socket,
            ServerConfig {
                journal: Some(journal),
                ..ServerConfig::default()
            },
        )?;
        let mut client = EcoClient::connect(&socket)?;
        self.bringup_s.push(start.elapsed().as_secs_f64());

        let (sent, mut failed) = self.drive(&mut client, design, seed, deltas, check);

        let health = client.request_json(&Request::Health)?;
        let served_stats = client.request_json(&Request::Stats)?;
        if let (Ok(health), Ok(served_stats)) = (health, served_stats) {
            self.scrub_slices += num(&health, &["health", "scrub", "slices"]).unwrap_or(0.0) as u64;
            self.batches += num(&served_stats, &["stats", "batches"]).unwrap_or(0.0) as u64;
            self.store_recaptures +=
                num(&served_stats, &["stats", "store_recaptures"]).unwrap_or(0.0) as u64;
        }
        client.request(&Request::Shutdown)?;
        let served = server.join();
        for entry in std::fs::read_dir(&journal_dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().starts_with("wal-") {
                self.wal_bytes += entry.metadata()?.len();
            }
        }

        let replay = self.replay(design, cfg, &sent, ledger, check)?;
        if fingerprint(served.design()) != fingerprint(replay.design()) {
            failed = failed.max(1);
            check.note("served design differs from the in-process replay".to_string());
        }
        if !served.check_legal() {
            failed = failed.max(1);
            check.note("served design is not legal".to_string());
        }
        check.record(deltas as u64, failed, || {
            format!("{failed} ECO deltas failed")
        });
        Ok(())
    }

    /// Send the stream, one request at a time, each after the previous reply (a closed
    /// loop with one client). Returns the deltas sent and how many of the stream failed.
    fn drive(
        &mut self,
        client: &mut EcoClient,
        design: &Design,
        seed: u64,
        deltas: usize,
        check: &mut Check,
    ) -> (Vec<EcoDelta>, u64) {
        let mut rng = SplitMix64::new(seed);
        let mut live = design.movable_ids();
        let mut sent = Vec::with_capacity(deltas);
        let mut failed = 0;
        let loop_start = Instant::now();
        while sent.len() < deltas {
            let (sites, rows) = (design.num_sites_x, design.num_rows);
            let (delta, at) = next_delta(&mut rng, &live, sites, rows);
            let request = Request::Apply(vec![delta.clone()]);
            let sent_at = Instant::now();
            let reply = client.request_json(&request);
            self.client_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
            self.kinds.push(delta.kind());
            sent.push(delta.clone());
            let reply = match reply {
                Ok(Ok(json)) => json,
                Ok(Err(message)) => {
                    failed += 1;
                    self.engine_us.push(f64::NAN);
                    check.note(format!("delta {delta:?} rejected: {message}"));
                    continue;
                }
                Err(e) => {
                    // the connection is gone: the rest of the stream fails unsent
                    failed += (deltas - sent.len() + 1) as u64;
                    self.engine_us.push(f64::NAN);
                    check.note(format!("socket failed: {e}"));
                    break;
                }
            };
            self.engine_us
                .push(num(&reply, &["report", "latency_us"]).unwrap_or(f64::NAN));
            let outcome = reply
                .get("report")
                .and_then(|r| r.get("outcomes"))
                .and_then(Json::as_arr)
                .and_then(|o| o.first());
            match outcome.and_then(|o| o.get("placed")).and_then(Json::as_str) {
                Some("failed") | None => {
                    failed += 1;
                    check.note(format!("delta {delta:?} failed to place"));
                }
                Some(_) => match delta {
                    EcoDelta::RemoveCell { .. } => {
                        live.swap_remove(at);
                    }
                    EcoDelta::InsertCell { .. } => {
                        let cell = outcome.and_then(|o| o.get("cell")).and_then(Json::as_f64);
                        live.push(CellId(cell.unwrap_or(f64::NAN) as u32));
                    }
                    _ => {}
                },
            }
        }
        self.loop_s += loop_start.elapsed().as_secs_f64();
        (sent, failed)
    }

    /// Apply `sent` in process on a fresh engine over `design`, timing each apply; with a
    /// ledger, also time the protocol codec per request and keep the replay's spans.
    fn replay(
        &mut self,
        design: &Design,
        cfg: &MglConfig,
        sent: &[EcoDelta],
        mut ledger: Option<&mut SpanLedger>,
        check: &mut Check,
    ) -> std::io::Result<EcoEngine> {
        if let Some(ledger) = ledger.as_deref_mut() {
            ledger.drain();
        }
        let mut replay = EcoEngine::new(design.clone(), cfg.clone())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        for delta in sent {
            let batch = std::slice::from_ref(delta);
            let applied_at = Instant::now();
            let report = replay.apply(batch);
            self.apply_us.push(applied_at.elapsed().as_secs_f64() * 1e6);
            if let (Some(_), Ok(report)) = (&ledger, &report) {
                let request = Request::Apply(batch.to_vec());
                let coded_at = Instant::now();
                let decoded = decode_request(&encode_request(std::hint::black_box(&request)));
                let reply = encode_report(report);
                let parsed = Json::parse(std::str::from_utf8(&reply).unwrap_or_default());
                self.codec_us.push(coded_at.elapsed().as_secs_f64() * 1e6);
                if decoded.as_ref() != Ok(&request) || parsed.is_err() {
                    check.note("protocol codec does not round-trip a request".to_string());
                }
            }
        }
        if let Some(ledger) = ledger {
            self.replay_spans.extend(ledger.drain());
        }
        Ok(replay)
    }
}

/// The end-to-end metrics of the phase: client-observed medians.
pub fn report(run: &EcoRun, metrics: &mut Metrics) {
    let structural: Vec<f64> = run
        .client_us
        .iter()
        .zip(&run.kinds)
        .filter(|(_, k)| **k != DeltaKind::Move)
        .map(|(us, _)| *us)
        .collect();
    metrics.push("eco_p50_us", pct(&run.client_us, 0.5), "us");
    metrics.push("eco_struct_p50_us", pct(&structural, 0.5), "us");
}

/// Nearest-rank percentile of unsorted samples (NaN for none).
fn pct(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    stats::percentile(&sorted, p).map_or(f64::NAN, |(v, _)| v)
}

/// Per-layer metrics of the phase (traced runs). The client-side tail and throughput
/// are here rather than end to end: they are set by the few deltas that expand the window
/// to its limit or fall back to the whole-die scan, and move too much from seed to seed
/// to hold a bound.
pub fn layer_report(run: &EcoRun, check: &mut Check, metrics: &mut Metrics) {
    let mut client = run.client_us.clone();
    client.sort_by(f64::total_cmp);
    match stats::percentile(&client, 0.99) {
        Some((p99, beyond)) if beyond >= 10 => metrics.push("eco.client_p99_us", p99, "us"),
        _ => {
            check.note(format!(
                "{} ECO samples leave fewer than ten beyond p99",
                client.len()
            ));
            metrics.push("eco.client_p99_us", f64::NAN, "us");
        }
    }
    metrics.push("eco.ops_per_s", client.len() as f64 / run.loop_s, "1/s");
    metrics.push("eco.apply_p50_us", pct(&run.apply_us, 0.5), "us");
    metrics.push("eco.apply_p99_us", pct(&run.apply_us, 0.99), "us");

    let times = stats::self_times(&run.replay_spans);
    let layer = |name: &str| {
        times
            .iter()
            .filter(|((_, n), _)| *n == name)
            .fold((0u64, 0u64), |(calls, ns), (_, t)| {
                (calls + t.calls, ns + t.self_ns)
            })
    };
    metrics.push("eco.extract_s", layer("mgl.extract").1 as f64 * 1e-9, "s");
    metrics.push("eco.fop_s", layer("mgl.fop").1 as f64 * 1e-9, "s");
    metrics.push(
        "eco.fallback_calls",
        layer("mgl.fallback_scan").0 as f64,
        "count",
    );

    let overhead: Vec<f64> = run
        .client_us
        .iter()
        .zip(&run.engine_us)
        .map(|(client, engine)| client - engine)
        .collect();
    metrics.push("eco.service_overhead_p50_us", pct(&overhead, 0.5), "us");
    metrics.push("eco.service_overhead_p99_us", pct(&overhead, 0.99), "us");
    metrics.push("eco.codec_us", stats::mean(&run.codec_us), "us");
    let batches = run.batches.max(1) as f64;
    metrics.push(
        "eco.scrub_slices_per_batch",
        run.scrub_slices as f64 / batches,
        "ratio",
    );
    metrics.push(
        "eco.journal_bytes_per_batch",
        run.wal_bytes as f64 / batches,
        "B",
    );
    metrics.push("eco.store_recaptures", run.store_recaptures as f64, "count");
}
