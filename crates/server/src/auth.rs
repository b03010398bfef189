//! The authoritative answer engine.
//!
//! Pure logic: (client address, query message) → response message. The same
//! engine backs the simulated server node, the live tokio server, and unit
//! tests. Zone selection is split-horizon by client address when a
//! [`ViewTable`] is supplied (the meta-DNS-server configuration of §2.4) or
//! a single shared [`ZoneSet`] otherwise (plain authoritative replay, §4).

use std::net::IpAddr;
use std::sync::Arc;

use ldp_wire::{Message, Opcode, Rcode, WireError};
use ldp_zone::{LookupOutcome, ViewTable, ZoneSet};

/// How the engine finds zones for a client.
enum ZoneSource {
    Views(ViewTable),
    Shared(Arc<ZoneSet>),
}

/// The authoritative engine.
pub struct AuthEngine {
    source: ZoneSource,
    /// Maximum UDP response size when the query carries no EDNS.
    plain_udp_limit: usize,
}

impl AuthEngine {
    /// Meta-DNS-server mode: zones chosen by (post-proxy) client address.
    pub fn with_views(views: ViewTable) -> AuthEngine {
        AuthEngine {
            source: ZoneSource::Views(views),
            plain_udp_limit: ldp_wire::MAX_UDP_PAYLOAD,
        }
    }

    /// Single-view mode: all clients see the same zones.
    pub fn with_zones(zones: Arc<ZoneSet>) -> AuthEngine {
        AuthEngine {
            source: ZoneSource::Shared(zones),
            plain_udp_limit: ldp_wire::MAX_UDP_PAYLOAD,
        }
    }

    fn zones_for(&self, client: IpAddr) -> Option<&ZoneSet> {
        match &self.source {
            ZoneSource::Views(v) => v.select(client).map(|arc| arc.as_ref()),
            ZoneSource::Shared(z) => Some(z.as_ref()),
        }
    }

    /// Produces the response for a query. `over_stream` disables UDP
    /// truncation (TCP/TLS carry any size).
    pub fn respond(&self, client: IpAddr, query: &Message, over_stream: bool) -> Message {
        let mut resp = self.answer(client, query);
        let limit = self.udp_limit(query);
        if !over_stream && resp.wire_size_estimate() > limit {
            // Decides truncation on the real encoding; the caller encodes
            // the result again.
            let _ = encode_truncating(&mut resp, limit, &mut Vec::new());
        }
        resp
    }

    /// Appends the wire form of the response to `query` to `out`: the bytes
    /// `respond(..).to_bytes()` produces, from one encode. Only a UDP
    /// response that must be truncated is encoded a second time, emptied.
    /// On error `out` is left as it was.
    pub fn respond_into(
        &self,
        client: IpAddr,
        query: &Message,
        over_stream: bool,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        let mut resp = self.answer(client, query);
        if over_stream {
            resp.encode_into(out)
        } else {
            encode_truncating(&mut resp, self.udp_limit(query), out)
        }
    }

    /// The full response, before any truncation.
    fn answer(&self, client: IpAddr, query: &Message) -> Message {
        let mut resp = Message::response_for(query);
        if query.header.opcode != Opcode::Query {
            resp.header.rcode = Rcode::NotImp;
            return resp;
        }
        let Some(question) = query.question() else {
            resp.header.rcode = Rcode::FormErr;
            return resp;
        };
        let Some(zones) = self.zones_for(client) else {
            resp.header.rcode = Rcode::Refused;
            return resp;
        };
        let dnssec_ok = query.dnssec_ok();
        match zones.lookup(&question.qname, question.qtype, dnssec_ok) {
            None => {
                resp.header.rcode = Rcode::Refused;
            }
            Some((_zone, outcome)) => match outcome {
                LookupOutcome::Answer {
                    records,
                    authority,
                    additional,
                } => {
                    resp.header.authoritative = true;
                    resp.answers = records;
                    resp.authorities = authority;
                    resp.additionals = additional;
                }
                LookupOutcome::Delegation(referral) => {
                    // Referrals are not authoritative answers: AA clear,
                    // NS of the child zone in authority, glue additional.
                    resp.header.authoritative = false;
                    resp.authorities = referral.ns_records;
                    resp.authorities.extend(referral.ds_records);
                    resp.additionals = referral.glue;
                }
                LookupOutcome::NoData { soa, denial } => {
                    resp.header.authoritative = true;
                    resp.authorities.extend(soa);
                    resp.authorities.extend(denial);
                }
                LookupOutcome::NxDomain { soa, denial } => {
                    resp.header.authoritative = true;
                    resp.header.rcode = Rcode::NxDomain;
                    resp.authorities.extend(soa);
                    resp.authorities.extend(denial);
                }
                LookupOutcome::OutOfZone => {
                    resp.header.rcode = Rcode::Refused;
                }
            },
        }
        resp
    }

    /// The client's UDP response limit: its EDNS payload size, never less
    /// than the plain-DNS limit.
    fn udp_limit(&self, query: &Message) -> usize {
        query
            .edns
            .as_ref()
            .map(|e| e.udp_payload_size as usize)
            .unwrap_or(self.plain_udp_limit)
            .max(self.plain_udp_limit)
    }

    /// Serves the canonical emulation scenario: is this engine configured
    /// with split-horizon views?
    pub fn is_split_horizon(&self) -> bool {
        matches!(self.source, ZoneSource::Views(_))
    }
}

/// Appends `resp` to `out` with RFC 2181 §9 truncation: if the encoded
/// response exceeds `limit`, the record sections are stripped and TC set
/// so the client retries over TCP. Only a response whose uncompressed size
/// estimate is over the limit can need it, so only those are measured.
fn encode_truncating(resp: &mut Message, limit: usize, out: &mut Vec<u8>) -> Result<(), WireError> {
    if resp.wire_size_estimate() <= limit {
        return resp.encode_into(out);
    }
    let start = out.len();
    if resp.encode_into(out).is_ok() {
        if out.len() - start <= limit {
            return Ok(());
        }
        out.truncate(start);
    }
    resp.answers.clear();
    resp.authorities.clear();
    resp.additionals.clear();
    resp.header.truncated = true;
    resp.encode_into(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_wire::{Edns, Name, RData, Record, RrType};
    use ldp_zone::Zone;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn hierarchy_views() -> ViewTable {
        let mut root = Zone::with_fake_soa(Name::root());
        root.add(Record::new(
            n("com"),
            172800,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        root.add(Record::new(
            n("a.gtld-servers.net"),
            172800,
            RData::A("192.5.6.30".parse().unwrap()),
        ))
        .unwrap();

        let mut com = Zone::with_fake_soa(n("com"));
        com.add(Record::new(
            n("example.com"),
            172800,
            RData::Ns(n("ns1.example.com")),
        ))
        .unwrap();
        com.add(Record::new(
            n("ns1.example.com"),
            172800,
            RData::A("192.0.2.53".parse().unwrap()),
        ))
        .unwrap();

        let mut sld = Zone::with_fake_soa(n("example.com"));
        sld.add(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ))
        .unwrap();

        ViewTable::from_nameserver_map(vec![
            (ip("198.41.0.4"), root),
            (ip("192.5.6.30"), com),
            (ip("192.0.2.53"), sld),
        ])
    }

    #[test]
    fn split_horizon_referral_chain() {
        let engine = AuthEngine::with_views(hierarchy_views());
        assert!(engine.is_split_horizon());
        let q = Message::query(1, n("www.example.com"), RrType::A);

        // Asked "as the root" (client addr = root NS addr): com referral.
        let r = engine.respond(ip("198.41.0.4"), &q, false);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert!(!r.header.authoritative);
        assert!(r.answers.is_empty());
        assert_eq!(r.authorities[0].name, n("com"));
        assert!(!r.additionals.is_empty(), "glue expected");

        // Asked "as com": example.com referral.
        let r = engine.respond(ip("192.5.6.30"), &q, false);
        assert_eq!(r.authorities[0].name, n("example.com"));

        // Asked "as the SLD": the answer.
        let r = engine.respond(ip("192.0.2.53"), &q, false);
        assert!(r.header.authoritative);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn unknown_view_refused() {
        let engine = AuthEngine::with_views(hierarchy_views());
        let q = Message::query(1, n("www.example.com"), RrType::A);
        let r = engine.respond(ip("10.1.1.1"), &q, false);
        assert_eq!(r.header.rcode, Rcode::Refused);
    }

    #[test]
    fn shared_zones_mode() {
        let mut set = ZoneSet::new();
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ))
        .unwrap();
        set.insert(z);
        let engine = AuthEngine::with_zones(Arc::new(set));
        let q = Message::query(9, n("www.example.com"), RrType::A);
        let r = engine.respond(ip("10.0.0.1"), &q, false);
        assert_eq!(r.header.id, 9);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn nxdomain_and_nodata() {
        let mut set = ZoneSet::new();
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ))
        .unwrap();
        set.insert(z);
        let engine = AuthEngine::with_zones(Arc::new(set));

        let r = engine.respond(
            ip("10.0.0.1"),
            &Message::query(1, n("nope.example.com"), RrType::A),
            false,
        );
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert_eq!(r.authorities.len(), 1, "SOA in authority");

        let r = engine.respond(
            ip("10.0.0.1"),
            &Message::query(1, n("www.example.com"), RrType::Mx),
            false,
        );
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
        assert_eq!(r.authorities.len(), 1);
    }

    #[test]
    fn out_of_zone_refused() {
        let mut set = ZoneSet::new();
        set.insert(Zone::with_fake_soa(n("example.com")));
        let engine = AuthEngine::with_zones(Arc::new(set));
        let r = engine.respond(
            ip("10.0.0.1"),
            &Message::query(1, n("example.net"), RrType::A),
            false,
        );
        assert_eq!(r.header.rcode, Rcode::Refused);
    }

    #[test]
    fn truncation_over_udp_but_not_tcp() {
        // Build a response far over 512 bytes: many TXT records.
        let mut set = ZoneSet::new();
        let mut z = Zone::with_fake_soa(n("big.test"));
        for i in 0..20 {
            z.add(Record::new(
                n("fat.big.test"),
                60,
                RData::Txt(vec![vec![b'a' + (i % 26) as u8; 200], vec![i as u8; 50]]),
            ))
            .unwrap();
        }
        set.insert(z);
        let engine = AuthEngine::with_zones(Arc::new(set));
        let q = Message::query(1, n("fat.big.test"), RrType::Txt);

        let udp = engine.respond(ip("10.0.0.1"), &q, false);
        assert!(udp.header.truncated);
        assert!(udp.answers.is_empty());

        let tcp = engine.respond(ip("10.0.0.1"), &q, true);
        assert!(!tcp.header.truncated);
        assert_eq!(tcp.answers.len(), 20);

        // EDNS with a big payload also avoids truncation.
        let mut q_edns = q.clone();
        q_edns.edns = Some(Edns {
            udp_payload_size: 65000,
            ..Edns::default()
        });
        let udp_edns = engine.respond(ip("10.0.0.1"), &q_edns, false);
        assert!(!udp_edns.header.truncated);
    }

    #[test]
    fn non_query_opcode_notimp() {
        let mut set = ZoneSet::new();
        set.insert(Zone::with_fake_soa(n("example.com")));
        let engine = AuthEngine::with_zones(Arc::new(set));
        let mut q = Message::query(1, n("example.com"), RrType::A);
        q.header.opcode = Opcode::Update;
        let r = engine.respond(ip("10.0.0.1"), &q, false);
        assert_eq!(r.header.rcode, Rcode::NotImp);
    }

    #[test]
    fn empty_question_formerr() {
        let mut set = ZoneSet::new();
        set.insert(Zone::with_fake_soa(n("example.com")));
        let engine = AuthEngine::with_zones(Arc::new(set));
        let q = Message::default();
        let r = engine.respond(ip("10.0.0.1"), &q, false);
        assert_eq!(r.header.rcode, Rcode::FormErr);
    }

    #[test]
    fn do_bit_grows_signed_response() {
        use ldp_zone::dnssec::{sign_zone, SigningConfig};
        let mut root = Zone::with_fake_soa(Name::root());
        root.add(Record::new(
            n("com"),
            172800,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        root.add(Record::new(
            n("com"),
            86400,
            RData::Ds {
                key_tag: 1,
                algorithm: 8,
                digest_type: 2,
                digest: vec![7; 32],
            },
        ))
        .unwrap();
        sign_zone(&mut root, SigningConfig::zsk2048());
        let mut set = ZoneSet::new();
        set.insert(root);
        let engine = AuthEngine::with_zones(Arc::new(set));

        let plain_q = Message::query(1, n("www.example.com"), RrType::A);
        let mut do_q = plain_q.clone();
        do_q.edns = Some(Edns::with_do());

        let plain = engine.respond(ip("10.0.0.1"), &plain_q, true);
        let signed = engine.respond(ip("10.0.0.1"), &do_q, true);
        let plain_len = plain.to_bytes().unwrap().len();
        let signed_len = signed.to_bytes().unwrap().len();
        assert!(
            signed_len > plain_len + 256,
            "DO response {signed_len} must exceed plain {plain_len} by a signature"
        );
    }
}
