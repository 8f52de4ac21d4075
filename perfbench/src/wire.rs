//! The wire layer timed in isolation through the public `Protocol` API, on
//! the frame shape of the `rpc` workload's exchanges: a one-int call and
//! an int reply, with per-link signature tables as the runtime keeps them.

use rafda::wire::{
    CorbaCodec, Protocol, Reply, Request, RmiCodec, SigTable, SoapCodec, TraceContext, WireValue,
};
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 7;
const EXCHANGES: u64 = 4_000;

fn median_of(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// `(codec, encode ns, decode ns)` per exchange (request + reply) for
/// RMI, CORBA and SOAP: the median of [`ROUNDS`] rounds.
pub fn codec_timings() -> Vec<(&'static str, f64, f64)> {
    let codecs: [(&str, Box<dyn Protocol>); 3] = [
        ("rmi", Box::new(RmiCodec::new())),
        ("corba", Box::new(CorbaCodec::new())),
        ("soap", Box::new(SoapCodec::new())),
    ];
    codecs
        .iter()
        .map(|(name, codec)| {
            let (enc, dec) = time_codec(codec.as_ref());
            (*name, enc, dec)
        })
        .collect()
}

fn time_codec(codec: &dyn Protocol) -> (f64, f64) {
    let req = Request::Call {
        object: 7,
        method: "bid@1".to_owned(),
        args: vec![WireValue::Int(3)],
    };
    let reply = Reply::Value(WireValue::Int(42));
    let ctx = TraceContext::NONE;
    let (mut req_enc, mut rep_enc) = (SigTable::new(), SigTable::new());
    let (mut req_dec, mut rep_dec) = (SigTable::new(), SigTable::new());
    let (mut req_buf, mut rep_buf) = (Vec::new(), Vec::new());

    // The first exchange on a link defines its signatures inline; decode
    // it once so the steady-state frames (signature references) resolve.
    codec
        .encode_request_into(0, ctx, &req, Some(&mut req_enc), &mut req_buf)
        .expect("encode request");
    codec
        .encode_reply_into(0, ctx, 1, &reply, Some(&mut rep_enc), &mut rep_buf)
        .expect("encode reply");
    decode(codec, &req_buf, &rep_buf, &mut req_dec, &mut rep_dec);

    let mut enc = Vec::with_capacity(ROUNDS);
    let mut dec = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for id in 1..=EXCHANGES {
            codec
                .encode_request_into(id, ctx, &req, Some(&mut req_enc), &mut req_buf)
                .expect("encode request");
            codec
                .encode_reply_into(id, ctx, 1, &reply, Some(&mut rep_enc), &mut rep_buf)
                .expect("encode reply");
            black_box((&req_buf, &rep_buf));
        }
        enc.push(t.elapsed().as_nanos() as f64 / EXCHANGES as f64);
        let t = Instant::now();
        for _ in 0..EXCHANGES {
            decode(codec, &req_buf, &rep_buf, &mut req_dec, &mut rep_dec);
        }
        dec.push(t.elapsed().as_nanos() as f64 / EXCHANGES as f64);
    }
    (median_of(enc), median_of(dec))
}

fn decode(
    codec: &dyn Protocol,
    req: &[u8],
    rep: &[u8],
    req_sigs: &mut SigTable,
    rep_sigs: &mut SigTable,
) {
    let header = codec
        .decode_request_header(black_box(req))
        .expect("decode request header");
    let request = header.materialise(Some(req_sigs)).expect("decode request");
    let reply = codec
        .decode_reply_with(black_box(rep), Some(rep_sigs))
        .expect("decode reply");
    black_box((request, reply));
}
