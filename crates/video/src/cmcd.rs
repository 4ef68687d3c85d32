//! Common Media Client Data (CMCD) encoding of chunk requests.
//!
//! §3.2 of the paper points out that application-informed pacing is already
//! deployable on stock CDNs: CMCD (CTA-5004) defines an `rtp` ("requested
//! maximum throughput") key that Akamai maps to server-side rate limiting,
//! and Fastly exposes a socket pace control driven by a request header.
//! This module renders and parses the CMCD payload our simulated requests
//! carry, so the wire format of the pace hint matches what a real player
//! would send.
//!
//! Only the keys the reproduction uses are implemented: `br` (encoded
//! bitrate, kbps), `bl` (buffer length, ms), `d` (object duration, ms),
//! `rtp` (requested max throughput, kbps, rounded up to the nearest 100 as
//! the spec requires), and `ot` (object type, always `v` for video here).

use netsim::{Rate, SimDuration};

/// The CMCD fields attached to a chunk request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmcdRequest {
    /// Encoded bitrate of the requested rung.
    pub bitrate: Rate,
    /// Current playback buffer level.
    pub buffer: SimDuration,
    /// Playback duration of the requested object.
    pub duration: SimDuration,
    /// Requested maximum throughput (the application-informed pace rate),
    /// if the client asks for pacing.
    pub requested_max_throughput: Option<Rate>,
}

impl CmcdRequest {
    /// Render as a `CMCD` header value, keys sorted alphabetically as the
    /// spec requires.
    pub fn to_header(&self) -> String {
        let mut parts = vec![
            format!("bl={}", self.buffer.as_millis_f64().round() as u64),
            format!("br={}", kbps(self.bitrate)),
            format!("d={}", self.duration.as_millis_f64().round() as u64),
            "ot=v".to_string(),
        ];
        if let Some(rtp) = self.requested_max_throughput {
            // Spec: rtp is expressed in kbps rounded UP to the next 100.
            let k = kbps(rtp);
            let rounded = k.div_ceil(100) * 100;
            parts.push(format!("rtp={rounded}"));
        }
        parts.sort();
        parts.join(",")
    }

    /// Parse a header value produced by [`CmcdRequest::to_header`] (or a
    /// compatible client). Unknown keys are ignored, per the spec's
    /// forward-compatibility rule. Returns `None` if a required key (`br`,
    /// `bl`, `d`) is missing or malformed.
    pub fn from_header(header: &str) -> Option<CmcdRequest> {
        let mut br = None;
        let mut bl = None;
        let mut d = None;
        let mut rtp = None;
        for part in header.split(',') {
            let mut kv = part.trim().splitn(2, '=');
            let key = kv.next()?.trim();
            let value = kv.next().unwrap_or("");
            match key {
                "br" => br = value.parse::<u64>().ok(),
                "bl" => bl = value.parse::<u64>().ok(),
                "d" => d = value.parse::<u64>().ok(),
                "rtp" => rtp = value.parse::<u64>().ok(),
                _ => {}
            }
        }
        Some(CmcdRequest {
            bitrate: Rate::from_kbps(br? as f64),
            buffer: SimDuration::from_millis(bl?),
            duration: SimDuration::from_millis(d?),
            requested_max_throughput: rtp.map(|k| Rate::from_kbps(k as f64)),
        })
    }
}

fn kbps(r: Rate) -> u64 {
    (r.bps() / 1e3).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CmcdRequest {
        CmcdRequest {
            bitrate: Rate::from_kbps(3300.0),
            buffer: SimDuration::from_millis(42_500),
            duration: SimDuration::from_secs(4),
            requested_max_throughput: Some(Rate::from_mbps(10.56)),
        }
    }

    #[test]
    fn header_format() {
        let h = sample().to_header();
        // Keys sorted, rtp rounded up to the nearest 100 kbps.
        assert_eq!(h, "bl=42500,br=3300,d=4000,ot=v,rtp=10600");
    }

    #[test]
    fn roundtrip() {
        let r = sample();
        let back = CmcdRequest::from_header(&r.to_header()).unwrap();
        assert_eq!(back.bitrate, r.bitrate);
        assert_eq!(back.buffer, r.buffer);
        assert_eq!(back.duration, r.duration);
        // rtp went through the round-up: 10560 -> 10600 kbps.
        assert_eq!(
            back.requested_max_throughput.unwrap(),
            Rate::from_kbps(10600.0)
        );
    }

    #[test]
    fn unpaced_request_omits_rtp() {
        let r = CmcdRequest {
            requested_max_throughput: None,
            ..sample()
        };
        let h = r.to_header();
        assert!(!h.contains("rtp"));
        let back = CmcdRequest::from_header(&h).unwrap();
        assert_eq!(back.requested_max_throughput, None);
    }

    #[test]
    fn unknown_keys_ignored() {
        let h = "bl=1000,br=500,cid=\"abc\",d=4000,nor=\"next\",sid=\"xyz\"";
        let r = CmcdRequest::from_header(h).unwrap();
        assert_eq!(r.bitrate, Rate::from_kbps(500.0));
        assert_eq!(r.requested_max_throughput, None);
    }

    #[test]
    fn malformed_header_rejected() {
        assert!(CmcdRequest::from_header("").is_none());
        assert!(CmcdRequest::from_header("br=abc,bl=1,d=1").is_none());
        assert!(CmcdRequest::from_header("bl=1,d=1").is_none()); // missing br
    }

    #[test]
    fn rtp_rounding_is_exact_multiple() {
        for mbps in [0.1, 1.0, 3.3, 9.99, 10.56, 52.8] {
            let r = CmcdRequest {
                requested_max_throughput: Some(Rate::from_mbps(mbps)),
                ..sample()
            };
            let h = r.to_header();
            let rtp: u64 = h
                .split(',')
                .find(|p| p.starts_with("rtp="))
                .and_then(|p| p[4..].parse().ok())
                .unwrap();
            assert_eq!(rtp % 100, 0, "rtp {rtp} not a multiple of 100");
            assert!(rtp as f64 >= mbps * 1e3, "rtp must round up");
            assert!((rtp as f64) < mbps * 1e3 + 100.0);
        }
    }
}
