//! Per-layer costs measured by replaying a workload's own inputs
//! through a layer's public functions, outside the served path.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dpgrid_core::{CompiledSurface, Release, Synopsis};
use dpgrid_geo::Rect;
use dpgrid_ldp::accumulate::{fold_grr_checked, fold_oue, oue_words, validate_oue};
use dpgrid_mech::{FrequencyOracle, Grr, LaplaceMechanism, Oue};
use dpgrid_serve::wire::{
    binary, RequestBody, ResponseBody, WireAnswers, WireQuery, WireRect, WireReportBatch,
    WireResponse,
};
use dpgrid_serve::{CacheState, QueryResponse, ReportBatch, ReportPayload};

use crate::stats::median;
use crate::Metrics;

/// A request frame, its response frame, and the rectangles it carries.
pub type Frame = (RequestBody, ResponseBody, usize);

/// The Query frame for `rects` against `key`, answered with `answers`.
pub fn query_frame(key: &str, rects: &[Rect], answers: Vec<f64>) -> Frame {
    let request = RequestBody::Query(WireQuery {
        release_key: key.to_string(),
        rects: rects.iter().map(WireRect::from).collect(),
    });
    let response = ResponseBody::Answers(WireAnswers::from_response(&QueryResponse {
        release_key: key.to_string(),
        version: 1,
        cache: CacheState::Warm,
        answers,
    }));
    (request, response, rects.len())
}

/// How long each replay repeats its input at least.
const MIN_REPLAY: Duration = Duration::from_millis(40);

/// Runs `f` over and over for at least [`MIN_REPLAY`], returning the
/// mean nanoseconds per call.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < MIN_REPLAY {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Codec cost of a set of request/response frames.
#[derive(Debug, Clone, Copy)]
struct CodecCost {
    /// Client request encode plus server response encode, per rectangle.
    encode_ns_per_rect: f64,
    /// Server request decode and validation plus client response
    /// decode, per rectangle.
    decode_ns_per_rect: f64,
    /// All four steps, per request.
    us_per_request: f64,
}

/// Puts the codec metrics of `frames` and returns the codec cost per
/// request, in microseconds.
pub fn codec_layers(layers: &mut Metrics, frames: &[Frame]) -> f64 {
    let cost = codec(frames);
    layers.put(
        "serve.wire.encode_ns_per_rect",
        cost.encode_ns_per_rect,
        "ns",
    );
    layers.put(
        "serve.wire.decode_ns_per_rect",
        cost.decode_ns_per_rect,
        "ns",
    );
    cost.us_per_request
}

/// Replays `frames` through the binary v2 codec: the same encode/decode
/// calls the client and the server make for each frame.
fn codec(frames: &[Frame]) -> CodecCost {
    let rects: usize = frames.iter().map(|f| f.2).sum();
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .map(|(req, resp, _)| (encode_req(req), encode_resp(resp)))
        .collect();
    let mut buf = Vec::new();
    let encode_ns = ns_per_call(|| {
        for (req, resp, _) in frames {
            buf.clear();
            let ty = binary::encode_request_payload(black_box(req), &mut buf)
                .expect("replayed request encodes");
            black_box(binary::encode_header(ty, 1, buf.len()));
            let response = WireResponse::new(1, black_box(resp).clone());
            binary::encode_response(&response, &mut buf).expect("replayed response encodes");
            black_box(&buf);
        }
    });
    let decode_ns = ns_per_call(|| {
        for (req, resp) in &encoded {
            let request = decode_req(black_box(req));
            if let RequestBody::Query(q) = &request.body {
                black_box(q.validate().expect("replayed query validates"));
            } else if let RequestBody::Window(w) = &request.body {
                black_box(w.validate().expect("replayed window validates"));
            }
            black_box(decode_resp(black_box(resp)));
        }
    });
    let rects = rects.max(1) as f64;
    CodecCost {
        encode_ns_per_rect: encode_ns / rects,
        decode_ns_per_rect: decode_ns / rects,
        us_per_request: (encode_ns + decode_ns) / frames.len().max(1) as f64 / 1e3,
    }
}

fn encode_req(body: &RequestBody) -> Vec<u8> {
    let mut payload = Vec::new();
    let ty = binary::encode_request_payload(body, &mut payload).expect("request encodes");
    let mut frame = binary::encode_header(ty, 1, payload.len()).to_vec();
    frame.extend_from_slice(&payload);
    frame
}

fn encode_resp(body: &ResponseBody) -> Vec<u8> {
    let mut frame = Vec::new();
    binary::encode_response(&WireResponse::new(1, body.clone()), &mut frame)
        .expect("response encodes");
    frame
}

fn header(frame: &[u8]) -> binary::FrameHeader {
    let bytes: &[u8; binary::HEADER_BYTES] = frame[..binary::HEADER_BYTES]
        .try_into()
        .expect("frame holds a header");
    binary::decode_header(bytes).expect("replayed header decodes")
}

fn decode_req(frame: &[u8]) -> dpgrid_serve::wire::WireRequest {
    binary::decode_request(&header(frame), &frame[binary::HEADER_BYTES..])
        .expect("replayed request decodes")
}

fn decode_resp(frame: &[u8]) -> WireResponse {
    binary::decode_response(&header(frame), &frame[binary::HEADER_BYTES..])
        .expect("replayed response decodes")
}

/// Server-side decode and validation of report frames, per report.
pub fn report_decode_ns_per_report(batches: &[&ReportBatch]) -> f64 {
    let frames: Vec<Vec<u8>> = batches
        .iter()
        .map(|b| {
            let mut frame = Vec::new();
            binary::append_report(1, &WireReportBatch::from_batch(b), &mut frame)
                .expect("report encodes");
            frame
        })
        .collect();
    let reports: u64 = batches.iter().map(|b| b.count()).sum();
    let ns = ns_per_call(|| {
        for frame in &frames {
            match decode_req(black_box(frame)).body {
                RequestBody::Report(batch) => {
                    black_box(batch.validate().expect("replayed batch validates"));
                }
                _ => unreachable!("report frames decode as reports"),
            }
        }
    });
    ns / reports.max(1) as f64
}

/// `CompiledSurface::answer_all` over `chunks` on each of `releases`,
/// per rectangle.
pub fn surface_ns_per_rect(releases: &[&Release], chunks: &[&[Rect]]) -> f64 {
    let rects: usize = chunks.iter().map(|c| c.len()).sum::<usize>() * releases.len();
    let surfaces: Vec<_> = releases.iter().map(|r| r.shared_surface()).collect();
    let ns = ns_per_call(|| {
        for surface in &surfaces {
            for chunk in chunks {
                black_box(surface.answer_all(black_box(chunk)));
            }
        }
    });
    ns / rects.max(1) as f64
}

/// Median milliseconds to compile each release's surface from its
/// cells, as a catalog does on a miss.
pub fn compile_ms_p50(releases: &[&Release]) -> f64 {
    let times: Vec<f64> = releases
        .iter()
        .map(|r| {
            let cells = r.cells();
            let domain = *r.domain();
            ns_per_call(|| {
                black_box(CompiledSurface::compile(domain, black_box(&cells)));
            }) / 1e6
        })
        .collect();
    median(&times)
}

/// Laplace count noise, per draw, over a buffer of `cells` counts.
pub fn laplace_ns_per_draw(cells: usize, seed: u64) -> f64 {
    let mechanism = LaplaceMechanism::for_count(crate::fixture::EPSILON).expect("valid epsilon");
    let mut rng = crate::fixture::rng(seed, "laplace-replay");
    let mut values = vec![0.0f64; cells.max(1)];
    ns_per_call(|| mechanism.randomize_slice(black_box(&mut values), &mut rng))
        / values.len() as f64
}

/// Fold and debias costs of one epoch's report batches.
#[derive(Debug, Clone, Copy)]
pub struct LdpCost {
    /// `fold_grr_checked`, per GRR report.
    pub fold_grr_ns_per_report: f64,
    /// `validate_oue` plus `fold_oue`, per OUE report.
    pub fold_oue_ns_per_report: f64,
    /// GRR and OUE debiasing, per cell estimate.
    pub debias_ns_per_cell: f64,
}

/// Replays the collector's folds and its seal-time debiasing on
/// `batches` over a `cells`-cell grid at per-report `epsilon`.
pub fn ldp(batches: &[&ReportBatch], cells: u32, epsilon: f64) -> LdpCost {
    let k = cells as usize;
    let (mut grr_n, mut oue_n) = (0u64, 0u64);
    let mut grr_acc = vec![0u64; k];
    let mut oue_acc = vec![0u64; k];
    for b in batches {
        match &b.payload {
            ReportPayload::Grr(r) => grr_n += r.len() as u64,
            ReportPayload::Oue { count, .. } => oue_n += u64::from(*count),
        }
    }
    let grr_ns = ns_per_call(|| {
        for b in batches {
            if let ReportPayload::Grr(reports) = &b.payload {
                fold_grr_checked(&mut grr_acc, cells, black_box(reports)).expect("valid GRR");
            }
        }
    });
    let oue_ns = ns_per_call(|| {
        for b in batches {
            if let ReportPayload::Oue { count, bits } = &b.payload {
                validate_oue(cells, *count, black_box(bits)).expect("valid OUE");
                fold_oue(&mut oue_acc, oue_words(cells), bits);
            }
        }
    });
    let grr = Grr::new(k, epsilon).expect("valid GRR oracle");
    let oue = Oue::new(k, epsilon).expect("valid OUE oracle");
    let debias_ns = ns_per_call(|| {
        black_box(grr.estimate(black_box(&grr_acc), grr_n.max(1)));
        black_box(oue.estimate(black_box(&oue_acc), oue_n.max(1)));
    });
    LdpCost {
        fold_grr_ns_per_report: grr_ns / grr_n.max(1) as f64,
        fold_oue_ns_per_report: oue_ns / oue_n.max(1) as f64,
        debias_ns_per_cell: debias_ns / (2 * k) as f64,
    }
}
