//! Table-driven decoder error paths: every codec must turn a malformed
//! frame into a typed [`rafda_wire::WireError`] — never a panic, never a
//! silently-wrong value, and never an attacker-sized allocation.

use rafda_wire::{
    CorbaCodec, Protocol, Reply, Request, RmiCodec, SigTable, SoapCodec, TraceContext, WireValue,
};

fn call_request() -> Request {
    Request::Call {
        object: 5,
        method: "averylongmethodname@9".to_owned(),
        args: vec![WireValue::Long(258), WireValue::Bool(true)],
    }
}

fn codecs() -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(RmiCodec::new()),
        Box::new(CorbaCodec::new()),
        Box::new(SoapCodec::new()),
    ]
}

/// Byte offset of `needle` inside `hay` (the frames are small; a naive
/// scan keeps the tests independent of each codec's header arithmetic).
fn find(hay: &[u8], needle: &[u8]) -> usize {
    hay.windows(needle.len())
        .position(|w| w == needle)
        .unwrap_or_else(|| panic!("pattern {needle:?} not found in frame"))
}

struct Case {
    label: String,
    codec: Box<dyn Protocol>,
    frame: Vec<u8>,
    /// Substring the error message must contain (empty = any error).
    expect: &'static str,
}

/// One corrupt frame per (codec, corruption) pair; each must decode to an
/// error whose message mentions the right cause.
#[test]
fn corrupt_request_frames_are_rejected_with_typed_errors() {
    let method = b"averylongmethodname@9";
    let mut cases = Vec::new();

    for codec in codecs() {
        let frame = codec
            .encode_request(9, TraceContext::NONE, &call_request())
            .unwrap();
        let at = find(&frame, method);

        // Lost the tail in transit, mid-way through a string.
        cases.push(Case {
            label: format!("{}: truncated mid-string", codec.name()),
            codec,
            frame: frame[..at + 5].to_vec(),
            expect: "",
        });
    }

    for codec in codecs() {
        let frame = codec
            .encode_request(9, TraceContext::NONE, &call_request())
            .unwrap();
        let at = find(&frame, method);

        // A byte inside the string is not valid UTF-8 any more.
        let mut bad_utf8 = frame;
        bad_utf8[at] = 0xFF;
        cases.push(Case {
            label: format!("{}: invalid utf-8 in string", codec.name()),
            codec,
            frame: bad_utf8,
            expect: "",
        });
    }

    // The binary codecs carry explicit u32 length prefixes; a corrupt one
    // claiming a ~4 GiB string must fail fast against the actual buffer
    // size instead of allocating what the attacker asked for.
    for codec in [
        Box::new(RmiCodec::new()) as Box<dyn Protocol>,
        Box::new(CorbaCodec::new()),
    ] {
        let frame = codec
            .encode_request(9, TraceContext::NONE, &call_request())
            .unwrap();
        let at = find(&frame, method);
        let mut huge = frame;
        huge[at - 4..at].copy_from_slice(&u32::MAX.to_le_bytes());
        cases.push(Case {
            label: format!("{}: oversized string length prefix", codec.name()),
            codec,
            frame: huge,
            expect: "",
        });
    }

    // CDR padding that lands past the end of the buffer: the GIOP body
    // aligns the arg count to 4 after the (odd-length) method string, so a
    // frame cut right at the string's end forces the pad skip off the end.
    {
        let codec: Box<dyn Protocol> = Box::new(CorbaCodec::new());
        let frame = codec
            .encode_request(9, TraceContext::NONE, &call_request())
            .unwrap();
        let cut = find(&frame, method) + method.len();
        cases.push(Case {
            label: "CORBA: alignment pad past end of buffer".to_owned(),
            codec,
            frame: frame[..cut].to_vec(),
            expect: "",
        });
    }

    // A signature reference cannot be resolved without the table that saw
    // its defining frame: a stateless decoder must say so, not guess.
    for codec in codecs() {
        let mut table = SigTable::new();
        let mut first = Vec::new();
        let mut second = Vec::new();
        codec
            .encode_request_into(
                1,
                TraceContext::NONE,
                &call_request(),
                Some(&mut table),
                &mut first,
            )
            .unwrap();
        codec
            .encode_request_into(
                2,
                TraceContext::NONE,
                &call_request(),
                Some(&mut table),
                &mut second,
            )
            .unwrap();
        cases.push(Case {
            label: format!("{}: sigref without a table", codec.name()),
            codec,
            frame: second,
            expect: "sigref",
        });
    }

    for case in cases {
        let got = case.codec.decode_request(&case.frame);
        let err = match got {
            Err(e) => e.to_string(),
            Ok(_) => panic!("{}: decoded a corrupt frame", case.label),
        };
        assert!(
            err.contains(case.expect),
            "{}: error {err:?} does not mention {:?}",
            case.label,
            case.expect
        );
    }
}

/// Every untrusted `u32` length prefix in the RMI binary format, corrupted
/// to claim ~4 billion elements. Each must decode to a typed error after a
/// *clamped* preallocation — an unclamped `Vec::with_capacity` here would
/// attempt a multi-gigabyte allocation and abort the process, which is the
/// regression this table exists to catch. One row per decoder site:
/// array items, object-state fields, call args, create args, batched ops,
/// exception fields, and batched-reply ops.
#[test]
fn oversized_rmi_length_prefixes_are_clamped_at_every_site() {
    let codec = RmiCodec::new();
    let huge = u32::MAX.to_le_bytes();
    let method = b"averylongmethodname@9";

    // Request sites. Each entry: (label, frame, byte offset of the count).
    let mut request_cases: Vec<(String, Vec<u8>, usize)> = Vec::new();

    // Call arg count: follows the inline method string.
    let frame = codec
        .encode_request(9, TraceContext::NONE, &call_request())
        .unwrap();
    let at = find(&frame, method) + method.len();
    request_cases.push(("rmi: call arg count".into(), frame, at));

    // Create arg count: follows the class string and the u16 ctor index.
    let frame = codec
        .encode_request(
            9,
            TraceContext::NONE,
            &Request::Create {
                class: "WidgetClass".to_owned(),
                ctor: 1,
                args: vec![WireValue::Int(7)],
            },
        )
        .unwrap();
    let at = find(&frame, b"WidgetClass") + "WidgetClass".len() + 2;
    request_cases.push(("rmi: create arg count".into(), frame, at));

    // Array item count: first arg is an array — its count sits one tag
    // byte after the (method string, arg count) prefix.
    let frame = codec
        .encode_request(
            9,
            TraceContext::NONE,
            &Request::Call {
                object: 5,
                method: "averylongmethodname@9".to_owned(),
                args: vec![WireValue::Array(vec![WireValue::Int(77)])],
            },
        )
        .unwrap();
    let at = find(&frame, method) + method.len() + 4 + 1;
    request_cases.push(("rmi: array item count".into(), frame, at));

    // Object-state field count: follows the state's class string.
    let frame = codec
        .encode_request(
            9,
            TraceContext::NONE,
            &Request::Call {
                object: 5,
                method: "averylongmethodname@9".to_owned(),
                args: vec![WireValue::ObjectState {
                    class: "StateClass".to_owned(),
                    fields: vec![WireValue::Int(5)],
                }],
            },
        )
        .unwrap();
    let at = find(&frame, b"StateClass") + "StateClass".len();
    request_cases.push(("rmi: object-state field count".into(), frame, at));

    // Batch op count: sits before the first op — R_CALL tag (1) + object
    // id (8) + the method string's own length prefix (4).
    let frame = codec
        .encode_request(9, TraceContext::NONE, &Request::Batch(vec![call_request()]))
        .unwrap();
    let at = find(&frame, method) - 4 - 8 - 1 - 4;
    request_cases.push(("rmi: batch op count".into(), frame, at));

    for (label, mut frame, at) in request_cases {
        frame[at..at + 4].copy_from_slice(&huge);
        assert!(
            codec.decode_request(&frame).is_err(),
            "{label}: decoded a frame claiming u32::MAX elements"
        );
    }

    // Reply sites.
    let mut reply_cases: Vec<(String, Vec<u8>, usize)> = Vec::new();

    // Exception field count: follows the exception class string.
    let frame = codec
        .encode_reply(
            9,
            TraceContext::NONE,
            0,
            &Reply::Exception {
                class: "BoomError".to_owned(),
                fields: vec![WireValue::Int(1)],
            },
        )
        .unwrap();
    let at = find(&frame, b"BoomError") + "BoomError".len();
    reply_cases.push(("rmi: exception field count".into(), frame, at));

    // Batched-reply op count: sits before the first op's recognisable
    // 8-byte version stamp.
    let version = 0x0102_0304_0506_0708u64;
    let frame = codec
        .encode_reply(
            9,
            TraceContext::NONE,
            0,
            &Reply::Batch(vec![(version, Reply::Value(WireValue::Int(3)))]),
        )
        .unwrap();
    let at = find(&frame, &version.to_le_bytes()) - 4;
    reply_cases.push(("rmi: batched-reply op count".into(), frame, at));

    for (label, mut frame, at) in reply_cases {
        frame[at..at + 4].copy_from_slice(&huge);
        assert!(
            codec.decode_reply(&frame).is_err(),
            "{label}: decoded a frame claiming u32::MAX elements"
        );
    }
}

/// A reference to a signature id the table has never defined (the peer's
/// table drifted, e.g. after a reconnect) is a typed error on every codec.
#[test]
fn unknown_sigref_ids_are_rejected_on_every_codec() {
    for codec in codecs() {
        let mut encode_table = SigTable::new();
        let mut first = Vec::new();
        let mut second = Vec::new();
        codec
            .encode_request_into(
                1,
                TraceContext::NONE,
                &call_request(),
                Some(&mut encode_table),
                &mut first,
            )
            .unwrap();
        codec
            .encode_request_into(
                2,
                TraceContext::NONE,
                &call_request(),
                Some(&mut encode_table),
                &mut second,
            )
            .unwrap();

        // A *fresh* table never saw the defining frame, so every id in the
        // second frame is unknown to it.
        let mut fresh = SigTable::new();
        let header = codec.decode_request_header(&second).unwrap();
        let err = header
            .materialise(Some(&mut fresh))
            .expect_err(&format!("{}: resolved an undefined sigref", codec.name()));
        assert!(
            err.to_string().contains("sigref"),
            "{}: error {err:?} does not mention the sigref",
            codec.name()
        );
    }
}

/// The dedup fast path reads headers without materialising; a frame whose
/// header region itself is truncated must still error cleanly.
#[test]
fn truncated_headers_are_rejected_by_the_header_decoder() {
    for codec in codecs() {
        let frame = codec
            .encode_request(77, TraceContext::NONE, &call_request())
            .unwrap();
        for cut in [0, 1, 4, 8, 16, 24, 32] {
            if cut >= frame.len() {
                continue;
            }
            assert!(
                codec.decode_request_header(&frame[..cut]).is_err(),
                "{}: header decoder accepted a {cut}-byte stump",
                codec.name()
            );
        }
    }
}

/// Every SOAP frame of this build carries a header. An envelope without
/// `<soap:Header>`, or a reply header without the `<rafda:objver>`
/// property version, is rejected instead of being decoded with a guessed
/// id or version.
#[test]
fn soap_rejects_headerless_envelopes_and_objverless_replies() {
    let codec = SoapCodec::new();
    let headerless = "<?xml version=\"1.0\"?>\n\
                      <soap:Envelope xmlns:soap=\"x\" xmlns:rafda=\"y\">\n\
                      <soap:Body><rafda:fetch object=\"5\"/></soap:Body>\n</soap:Envelope>\n";
    for err in [
        codec
            .decode_request_header(headerless.as_bytes())
            .map(|_| ())
            .unwrap_err(),
        codec
            .decode_request(headerless.as_bytes())
            .map(|_| ())
            .unwrap_err(),
    ] {
        assert!(err.to_string().contains("missing <soap:Header>"), "{err}");
    }
    let objverless = "<?xml version=\"1.0\"?>\n\
                      <soap:Envelope xmlns:soap=\"x\" xmlns:rafda=\"y\">\n\
                      <soap:Header><rafda:mid>6</rafda:mid>\
                      <rafda:trace id=\"1\" span=\"2\" parent=\"0\"/></soap:Header>\n\
                      <soap:Body><rafda:result><v t=\"int\">9</v></rafda:result></soap:Body>\n\
                      </soap:Envelope>\n";
    let err = codec.decode_reply(objverless.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("missing rafda:objver"), "{err}");
}

/// Every RMI frame of this build is version 7 (stateless) or 8 (interned).
/// Any other version byte — the retired pre-tracing, pre-caching,
/// pre-failover and pre-batching layouts, or one from the future — is
/// rejected by both the request-header and the reply decoder.
#[test]
fn rmi_rejects_every_version_it_does_not_emit() {
    let codec = RmiCodec::new();
    let ctx = TraceContext {
        trace_id: 5,
        span_id: 6,
        parent_span_id: 1,
    };
    let request = codec
        .encode_request(9, ctx, &Request::Fetch { object: 2 })
        .unwrap();
    let reply = codec
        .encode_reply(9, ctx, 4, &Reply::Value(WireValue::Int(3)))
        .unwrap();
    for version in [0u8, 3, 4, 5, 6, 9] {
        let (mut req, mut rep) = (request.clone(), reply.clone());
        req[4] = version;
        rep[4] = version;
        for err in [
            codec.decode_request_header(&req).map(|_| ()).unwrap_err(),
            codec.decode_reply(&rep).map(|_| ()).unwrap_err(),
        ] {
            assert!(
                err.to_string()
                    .contains(&format!("unsupported RMI frame version {version}")),
                "version {version}: {err}"
            );
        }
    }
}

/// Every GIOP frame of this build is minor version 7 (stateless) or 8
/// (interned). Any other minor byte — the retired pre-tracing,
/// pre-caching, pre-failover and pre-batching layouts, or one from the
/// future — is rejected by both the request-header and the reply decoder.
#[test]
fn giop_rejects_every_minor_it_does_not_emit() {
    let codec = CorbaCodec::new();
    let ctx = TraceContext {
        trace_id: 5,
        span_id: 6,
        parent_span_id: 1,
    };
    let request = codec
        .encode_request(9, ctx, &Request::Fetch { object: 2 })
        .unwrap();
    let reply = codec
        .encode_reply(9, ctx, 4, &Reply::Value(WireValue::Int(3)))
        .unwrap();
    for minor in [0u8, 3, 4, 5, 6, 9] {
        let (mut req, mut rep) = (request.clone(), reply.clone());
        req[5] = minor;
        rep[5] = minor;
        for err in [
            codec.decode_request_header(&req).map(|_| ()).unwrap_err(),
            codec.decode_reply(&rep).map(|_| ()).unwrap_err(),
        ] {
            assert!(
                err.to_string()
                    .contains(&format!("unsupported GIOP minor version {minor}")),
                "minor {minor}: {err}"
            );
        }
    }
}
