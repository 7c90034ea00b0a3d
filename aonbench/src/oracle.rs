//! Expected answers, computed apart from the program under test.
//!
//! Nothing here calls into the AON engines: each verdict is derived from
//! the message bytes by a rule simple enough to read at a glance (a
//! substring, a character class, a fresh SHA-1), or from what the
//! benchmark itself planted. A shared bug cannot make the engine and its
//! check agree.

/// The device's shared authentication key (deployment configuration of
/// the CRYPTO use case).
pub const DEVICE_KEY: &[u8] = b"aon-device-shared-key";

/// One concrete instance of each default DPI signature, in rule order
/// (SQL injection, path traversal, entity bomb, nesting depth, script
/// injection, command execution, null byte, overlong UTF-8, empty
/// SOAPAction, PE/ELF base64 header, external DTD, XPath injection).
pub const SIGNATURES: [&str; 12] = [
    "x' or 1=1",
    "../../etc/passwd",
    "<!ENTITY lol \"&lol2;\">",
    "<x><x><x><x><x><x><x><x>",
    "<script>alert(1)</script>",
    "; rm -rf /tmp/a",
    "name%00.xml",
    "%c0%af..%c0%af",
    "SOAPAction: \"\"",
    "TVqQAAMAAAAEAAAA//8AALgAAAAA",
    "SYSTEM \"http://evil.example/x.dtd\"",
    "[1=1]",
];

/// CBR routes to the destination iff the order's routed item has
/// quantity one.
pub fn cbr_routes(body: &[u8]) -> bool {
    contains(body, b"<quantity>1</quantity>")
}

/// SV accepts iff every `<sku>` value is two capital letters followed by
/// at least one digit.
pub fn sv_valid(body: &[u8]) -> bool {
    let mut rest = body;
    let mut seen = false;
    while let Some(i) = find(rest, b"<sku>") {
        rest = &rest[i + 5..];
        let Some(end) = find(rest, b"</sku>") else { return false };
        let sku = &rest[..end];
        let ok = sku.len() > 2
            && sku[..2].iter().all(u8::is_ascii_uppercase)
            && sku[2..].iter().all(u8::is_ascii_digit);
        if !ok {
            return false;
        }
        seen = true;
        rest = &rest[end..];
    }
    seen
}

/// CRYPTO authenticates iff the HMAC-SHA1 tag's first byte is not 0xFF.
pub fn crypto_routes(body: &[u8]) -> bool {
    hmac_sha1(DEVICE_KEY, body)[0] != 0xFF
}

/// Byte-substring search.
pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// True when `needle` occurs in `hay`.
pub fn contains(hay: &[u8], needle: &[u8]) -> bool {
    find(hay, needle).is_some()
}

/// SHA-1 (FIPS 180-4) of `data`.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0];
    let bit_len = u64::try_from(data.len()).expect("message length fits u64").wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    msg.resize(msg.len().div_ceil(64) * 64, 0);
    if msg.len() - data.len() < 9 {
        msg.resize(msg.len() + 64, 0);
    }
    let n = msg.len();
    msg[n - 8..].copy_from_slice(&bit_len.to_be_bytes());
    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (t, word) in block.chunks_exact(4).enumerate() {
            w[t] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for t in 16..80 {
            w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = h;
        for (t, wt) in w.iter().enumerate() {
            let (f, k) = match t / 20 {
                0 => ((b & c) | (!b & d), 0x5A82_7999),
                1 => (b ^ c ^ d, 0x6ED9_EBA1),
                2 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let temp = a.rotate_left(5).wrapping_add(f).wrapping_add(e).wrapping_add(k);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp.wrapping_add(*wt);
        }
        for (hi, v) in h.iter_mut().zip([a, b, c, d, e]) {
            *hi = hi.wrapping_add(v);
        }
    }
    let mut out = [0u8; 20];
    for (chunk, v) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&v.to_be_bytes());
    }
    out
}

/// HMAC-SHA1 (RFC 2104) of `data` under `key`.
pub fn hmac_sha1(key: &[u8], data: &[u8]) -> [u8; 20] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..20].copy_from_slice(&sha1(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let pad = |x: u8| k.iter().map(move |b| b ^ x);
    let inner: Vec<u8> = pad(0x36).chain(data.iter().copied()).collect();
    let outer: Vec<u8> = pad(0x5c).chain(sha1(&inner)).collect();
    sha1(&outer)
}

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The server will close the connection after this response.
    pub close: bool,
    /// Response body.
    pub body: Vec<u8>,
}

/// Split a response head into (status, content length, close flag).
/// `None` when the head is not a usable HTTP/1.1 response head.
pub fn parse_head(head: &[u8]) -> Option<(u16, usize, bool)> {
    let text = std::str::from_utf8(head).ok()?;
    let mut lines = text.split("\r\n");
    let mut status_line = lines.next()?.split(' ');
    if status_line.next()? != "HTTP/1.1" {
        return None;
    }
    let status = status_line.next()?.parse().ok()?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse().ok()?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Some((status, length?, close))
}

/// How a response compares with the expected routing verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Status and body both agree with the expectation.
    Correct,
    /// No verdict at all (a 503 or any status but 200 and 422): a failed
    /// op.
    Failed,
    /// A verdict that contradicts the oracle (200 where 422 is expected
    /// or the reverse), or a body that contradicts its status: a wrong
    /// answer.
    Wrong,
}

/// Judge `resp` against the expectation that the message routes
/// (`200 <aon routed="true"/>`) or not (`422 <aon routed="false"/>`).
pub fn judge(resp: &Response, expect_routed: bool) -> Verdict {
    let routed = match resp.status {
        200 => true,
        422 => false,
        _ => return Verdict::Failed,
    };
    let marker: &[u8] = if routed { b"routed=\"true\"" } else { b"routed=\"false\"" };
    if routed == expect_routed && contains(&resp.body, marker) {
        Verdict::Correct
    } else {
        Verdict::Wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha1_matches_fips_vectors() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(hex(&sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(&sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        // Lengths around the padding boundary (55, 56, 64 bytes).
        assert_eq!(hex(&sha1(&[b'a'; 55])), "c1c8bbdc22796e28c0e15163d20899b65621d65a");
        assert_eq!(hex(&sha1(&[b'a'; 56])), "c2db330f6083854c99d4b5bfb6e8f29f201be699");
        assert_eq!(hex(&sha1(&[b'a'; 64])), "0098ba824b5c16427bd7a1122a5a442a25ec644d");
    }

    #[test]
    fn hmac_matches_rfc2202_vectors() {
        assert_eq!(
            hex(&hmac_sha1(&[0x0b; 20], b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
        assert_eq!(
            hex(&hmac_sha1(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
        assert_eq!(
            hex(&hmac_sha1(&[0xaa; 80], b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    #[test]
    fn cbr_oracle_reads_the_routed_quantity() {
        assert!(cbr_routes(b"<item><quantity>1</quantity></item>"));
        assert!(!cbr_routes(b"<item><quantity>12</quantity></item>"));
        assert!(!cbr_routes(b"<item><quantity>21</quantity></item>"));
    }

    #[test]
    fn sv_oracle_checks_every_sku() {
        assert!(sv_valid(b"<sku>AB123</sku><sku>ZZ9</sku>"));
        assert!(!sv_valid(b"<sku>AB123</sku><sku>xx123</sku>"));
        assert!(!sv_valid(b"<sku>AB</sku>"));
        assert!(!sv_valid(b"<sku>A1234</sku>"));
        assert!(!sv_valid(b"<sku>AB12x</sku>"));
        assert!(!sv_valid(b"<sku>AB12"));
        assert!(!sv_valid(b"no items at all"));
    }

    #[test]
    fn response_heads_parse_and_judge() {
        let head = b"HTTP/1.1 422 Unprocessable Entity\r\nContent-Type: text/xml\r\n\
                     Content-Length: 22\r\nConnection: close";
        assert_eq!(parse_head(head), Some((422, 22, true)));
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\nConnection: keep-alive"), None);
        assert_eq!(parse_head(b"HTTP/1.0 200 OK\r\nContent-Length: 1"), None);
        let ok = Response { status: 200, close: false, body: b"<aon routed=\"true\"/>".to_vec() };
        assert_eq!(judge(&ok, true), Verdict::Correct);
        // The opposite verdict is a wrong answer, not a failed op.
        assert_eq!(judge(&ok, false), Verdict::Wrong);
        let reject =
            Response { status: 422, close: false, body: b"<aon routed=\"false\"/>".to_vec() };
        assert_eq!(judge(&reject, false), Verdict::Correct);
        assert_eq!(judge(&reject, true), Verdict::Wrong);
        let lying =
            Response { status: 200, close: false, body: b"<aon routed=\"false\"/>".to_vec() };
        assert_eq!(judge(&lying, true), Verdict::Wrong);
        let shed = Response { status: 503, close: true, body: b"<aon shed=\"true\"/>".to_vec() };
        assert_eq!(judge(&shed, true), Verdict::Failed);
        assert_eq!(judge(&shed, false), Verdict::Failed);
    }
}
