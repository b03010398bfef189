//! Authoritative lookup over a [`Zone`]: the RFC 1034 §4.3.2 algorithm as
//! the meta-DNS-server needs it — exact matches, CNAME chains, wildcard
//! synthesis, delegation referrals with glue, and NXDOMAIN/NODATA, plus
//! DNSSEC record attachment when the query set the DO bit.
//!
//! Correct *referrals* are the crux of LDplayer's hierarchy emulation: a
//! naive server that knows the whole hierarchy would answer
//! `www.example.com A` directly, skipping the root→TLD→SLD round trips the
//! paper preserves (§2.4). Here each `Zone` only answers for itself, so a
//! query against the root zone yields the `com` referral exactly as a real
//! root server would.

use ldp_wire::{Name, NameBuf, NameRef, RData, Record, RrType};

use crate::zone::{RrSet, Zone};

/// A delegation: the cut point, its NS rrset, and any in-zone glue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Referral {
    /// The delegated child zone name.
    pub cut: Name,
    /// NS records at the cut.
    pub ns_records: Vec<Record>,
    /// Glue A/AAAA records for in-bailiwick nameservers.
    pub glue: Vec<Record>,
    /// DS records at the cut (DNSSEC delegations), present when requested.
    pub ds_records: Vec<Record>,
}

/// The result of an authoritative lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Authoritative data. `records` holds the answer section (including
    /// any CNAME chain walked inside this zone); `authority` carries the
    /// apex NS set.
    Answer {
        records: Vec<Record>,
        authority: Vec<Record>,
        additional: Vec<Record>,
    },
    /// The name is below a delegation: answer with a referral.
    Delegation(Referral),
    /// The name exists but has no data of the requested type.
    NoData {
        soa: Option<Record>,
        /// Authenticated denial (NSEC + RRSIGs) when requested and signed.
        denial: Vec<Record>,
    },
    /// The name does not exist in this zone.
    NxDomain {
        soa: Option<Record>,
        /// Authenticated denial (NSEC + RRSIGs) when requested and signed.
        denial: Vec<Record>,
    },
    /// The name is not within this zone at all (server should look for a
    /// better zone or refuse).
    OutOfZone,
}

/// Maximum CNAME chain length followed within one zone; prevents loops in
/// hostile or buggy zone data.
const MAX_CNAME_CHAIN: usize = 12;

impl Zone {
    /// Performs an authoritative lookup. `dnssec_ok` attaches RRSIG/DS
    /// records (as present in the zone) the way a signed zone would.
    pub fn lookup(&self, qname: &Name, qtype: RrType, dnssec_ok: bool) -> LookupOutcome {
        if !qname.is_subdomain_of(self.origin()) {
            return LookupOutcome::OutOfZone;
        }

        // Delegation check first: anything at or below a cut is referred,
        // except a DS query *at* the cut (the parent is authoritative for
        // DS) and NS data retained at the cut for referral synthesis.
        if let Some(cut) = self.deepest_cut(qname).cloned() {
            let at_cut = *qname == cut;
            let ds_at_cut = at_cut && qtype == RrType::Ds;
            if !ds_at_cut {
                return LookupOutcome::Delegation(self.referral_at(&cut, dnssec_ok));
            }
        }

        let mut answer: Vec<Record> = Vec::new();
        let mut current = qname.clone();
        for _hop in 0..MAX_CNAME_CHAIN {
            if let Some(types) = self.get_all(&current) {
                // Exact name exists.
                if let Some(set) = types.get(&qtype) {
                    answer.extend(set.records(&current, qtype));
                    if dnssec_ok {
                        self.attach_rrsigs(&current, qtype, &mut answer);
                    }
                    return self.finish_answer(answer, dnssec_ok);
                }
                if qtype == RrType::Any {
                    for (t, set) in types {
                        if *t == RrType::Rrsig && !dnssec_ok {
                            continue;
                        }
                        answer.extend(set.records(&current, *t));
                    }
                    return self.finish_answer(answer, dnssec_ok);
                }
                if let Some(cname_set) = types.get(&RrType::Cname) {
                    answer.extend(cname_set.records(&current, RrType::Cname));
                    if dnssec_ok {
                        self.attach_rrsigs(&current, RrType::Cname, &mut answer);
                    }
                    // Follow the chain while the target stays in-zone.
                    if let Some(RData::Cname(target)) = cname_set.rdatas.first() {
                        if target.is_subdomain_of(self.origin())
                            && self.deepest_cut(target).is_none()
                        {
                            current = target.clone();
                            continue;
                        }
                    }
                    return self.finish_answer(answer, dnssec_ok);
                }
                // Name exists, no data of this type.
                return LookupOutcome::NoData {
                    soa: self.soa_record(),
                    denial: self.denial_records(&current, dnssec_ok),
                };
            }

            // An existing name with no records (empty non-terminal) is
            // NODATA, and blocks wildcard synthesis (RFC 4592 §2.2.2).
            if self.name_exists(&current) {
                return LookupOutcome::NoData {
                    soa: self.soa_record(),
                    denial: self.denial_records(&current, dnssec_ok),
                };
            }

            // Name doesn't exist: wildcard synthesis (RFC 4592). Find the
            // closest encloser (deepest existing ancestor), then look for
            // `*.<closest encloser>`.
            if let Some(wild_types) = self.closest_wildcard(&current) {
                let (wild_owner, types) = wild_types;
                if let Some(set) = types.get(&qtype) {
                    answer.extend(synthesize(set, &current, qtype));
                    if dnssec_ok {
                        let mut sigs = Vec::new();
                        self.attach_rrsigs(wild_owner, qtype, &mut sigs);
                        // Re-own the signatures at the synthesized name.
                        for mut s in sigs {
                            s.name = current.clone();
                            answer.push(s);
                        }
                    }
                    return self.finish_answer(answer, dnssec_ok);
                }
                if let Some(cname_set) = types.get(&RrType::Cname) {
                    answer.extend(synthesize(cname_set, &current, RrType::Cname));
                    if let Some(RData::Cname(target)) = cname_set.rdatas.first() {
                        if target.is_subdomain_of(self.origin())
                            && self.deepest_cut(target).is_none()
                        {
                            current = target.clone();
                            continue;
                        }
                    }
                    return self.finish_answer(answer, dnssec_ok);
                }
                return LookupOutcome::NoData {
                    soa: self.soa_record(),
                    denial: self.denial_records(&current, dnssec_ok),
                };
            }

            // No exact name, no wildcard.
            if answer.is_empty() {
                return LookupOutcome::NxDomain {
                    soa: self.soa_record(),
                    denial: self.denial_records(&current, dnssec_ok),
                };
            }
            // CNAME chain dangled into a nonexistent in-zone name: return
            // what we collected with the SOA hint.
            return self.finish_answer(answer, dnssec_ok);
        }
        // Chain too long; return what we have.
        self.finish_answer(answer, dnssec_ok)
    }

    /// Builds the referral response content at a cut.
    pub fn referral_at(&self, cut: &Name, dnssec_ok: bool) -> Referral {
        let ns_set = self.get(cut, RrType::Ns);
        let ns_records = ns_set
            .map(|s| s.to_records(cut, RrType::Ns))
            .unwrap_or_default();
        let mut glue = Vec::new();
        for rec in &ns_records {
            if let RData::Ns(target) = &rec.rdata {
                // Glue only for in-zone (in-bailiwick) nameserver names.
                if target.is_subdomain_of(self.origin()) {
                    glue.extend(self.addresses(target));
                }
            }
        }
        let mut ds_records = Vec::new();
        if dnssec_ok {
            if let Some(set) = self.get(cut, RrType::Ds) {
                ds_records.extend(set.records(cut, RrType::Ds));
                self.attach_rrsigs(cut, RrType::Ds, &mut ds_records);
            }
        }
        Referral {
            cut: cut.clone(),
            ns_records,
            glue,
            ds_records,
        }
    }

    fn finish_answer(&self, records: Vec<Record>, dnssec_ok: bool) -> LookupOutcome {
        // Authority: apex NS set, additional: their in-zone addresses.
        let mut authority = Vec::new();
        let mut additional = Vec::new();
        if let Some(ns_set) = self.get(self.origin(), RrType::Ns) {
            authority.extend(ns_set.records(self.origin(), RrType::Ns));
            if dnssec_ok {
                self.attach_rrsigs(self.origin(), RrType::Ns, &mut authority);
            }
            for rd in &ns_set.rdatas {
                if let RData::Ns(target) = rd {
                    if target.is_subdomain_of(self.origin()) {
                        additional.extend(self.addresses(target));
                    }
                }
            }
        }
        LookupOutcome::Answer {
            records,
            authority,
            additional,
        }
    }

    /// The A then AAAA records at `target`, from one search of the zone.
    fn addresses<'a>(&'a self, target: &'a Name) -> impl Iterator<Item = Record> + 'a {
        let types = self.get_all(target);
        [RrType::A, RrType::Aaaa].into_iter().flat_map(move |t| {
            types
                .and_then(|types| types.get(&t))
                .into_iter()
                .flat_map(move |set| set.records(target, t))
        })
    }

    /// Appends RRSIGs covering (name, covered_type) when the zone holds them.
    fn attach_rrsigs(&self, name: &Name, covered: RrType, out: &mut Vec<Record>) {
        if let Some(set) = self.get(name, RrType::Rrsig) {
            for rd in &set.rdatas {
                if let RData::Rrsig { type_covered, .. } = rd {
                    if *type_covered == covered {
                        out.push(Record {
                            name: name.clone(),
                            rtype: RrType::Rrsig,
                            class: ldp_wire::RrClass::In,
                            ttl: set.ttl,
                            rdata: rd.clone(),
                        });
                    }
                }
            }
        }
    }

    /// Builds the authenticated-denial record set for a negative answer:
    /// the covering NSEC with its signatures, plus the SOA's signature
    /// (RFC 4035 §3.1.3). Empty when the zone is unsigned or DO is clear.
    /// These records are what make signed NXDOMAIN responses large — the
    /// dominant term in the paper's §5.1 DO-traffic growth.
    fn denial_records(&self, qname: &Name, dnssec_ok: bool) -> Vec<Record> {
        if !dnssec_ok {
            return Vec::new();
        }
        let mut out = Vec::new();
        if let Some(owner) = self.covering_nsec_owner(qname).cloned() {
            if let Some(set) = self.get(&owner, RrType::Nsec) {
                out.extend(set.records(&owner, RrType::Nsec));
            }
            self.attach_rrsigs(&owner, RrType::Nsec, &mut out);
        }
        self.attach_rrsigs(self.origin(), RrType::Soa, &mut out);
        out
    }

    /// RFC 4592 wildcard search: walk ancestors of `qname` from deepest to
    /// shallowest; at the first *existing* ancestor (the closest encloser),
    /// check for `*.<encloser>`. Source-of-synthesis must not itself exist
    /// on the path (guaranteed because we only get here when `qname` does
    /// not exist).
    fn closest_wildcard(
        &self,
        qname: &NameRef,
    ) -> Option<(&Name, &std::collections::HashMap<RrType, RrSet>)> {
        let origin_labels = self.origin().label_count();
        let mut keep = qname.label_count();
        while keep > origin_labels {
            let candidate = qname.suffix(keep - 1)?;
            if self.name_exists(candidate) {
                // candidate is the closest encloser.
                let wild = NameBuf::prepend(b"*", candidate).ok()?;
                return self.get_entry(&wild);
            }
            keep -= 1;
        }
        None
    }
}

/// Synthesizes records at `owner` from a wildcard rrset.
fn synthesize(set: &RrSet, owner: &Name, rtype: RrType) -> Vec<Record> {
    set.to_records(owner, rtype)
        .into_iter()
        .map(|mut r| {
            r.name = owner.clone();
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_wire::Record;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn a(addr: &str) -> RData {
        RData::A(addr.parse::<Ipv4Addr>().unwrap())
    }

    /// A root zone delegating `com`, and a com zone delegating
    /// `example.com`, and the example.com zone itself — the three-level
    /// hierarchy from the paper's walkthrough.
    fn root_zone() -> Zone {
        let mut z = Zone::with_fake_soa(Name::root());
        z.add(Record::new(
            Name::root(),
            518400,
            RData::Ns(n("a.root-servers.net")),
        ))
        .unwrap();
        z.add(Record::new(
            n("a.root-servers.net"),
            518400,
            a("198.41.0.4"),
        ))
        .unwrap();
        z.add(Record::new(
            n("com"),
            172800,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        z.add(Record::new(
            n("a.gtld-servers.net"),
            172800,
            a("192.5.6.30"),
        ))
        .unwrap();
        z
    }

    fn com_zone() -> Zone {
        let mut z = Zone::with_fake_soa(n("com"));
        z.add(Record::new(
            n("com"),
            172800,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        z.add(Record::new(
            n("example.com"),
            172800,
            RData::Ns(n("ns1.example.com")),
        ))
        .unwrap();
        z.add(Record::new(n("ns1.example.com"), 172800, a("192.0.2.53")))
            .unwrap();
        z
    }

    fn example_zone() -> Zone {
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("example.com"),
            3600,
            RData::Ns(n("ns1.example.com")),
        ))
        .unwrap();
        z.add(Record::new(n("ns1.example.com"), 3600, a("192.0.2.53")))
            .unwrap();
        z.add(Record::new(n("www.example.com"), 300, a("192.0.2.80")))
            .unwrap();
        z.add(Record::new(
            n("alias.example.com"),
            300,
            RData::Cname(n("www.example.com")),
        ))
        .unwrap();
        z.add(Record::new(
            n("ext.example.com"),
            300,
            RData::Cname(n("target.example.net")),
        ))
        .unwrap();
        z.add(Record::new(n("*.wild.example.com"), 60, a("192.0.2.99")))
            .unwrap();
        z.add(Record::new(n("a.deep.example.com"), 60, a("192.0.2.11")))
            .unwrap();
        z
    }

    #[test]
    fn root_refers_com() {
        let z = root_zone();
        match z.lookup(&n("www.example.com"), RrType::A, false) {
            LookupOutcome::Delegation(r) => {
                assert_eq!(r.cut, n("com"));
                assert_eq!(r.ns_records.len(), 1);
                // a.gtld-servers.net is in-bailiwick of the root.
                assert_eq!(r.glue.len(), 1);
            }
            other => panic!("expected delegation, got {other:?}"),
        }
    }

    #[test]
    fn com_refers_example() {
        let z = com_zone();
        match z.lookup(&n("www.example.com"), RrType::A, false) {
            LookupOutcome::Delegation(r) => {
                assert_eq!(r.cut, n("example.com"));
                assert_eq!(r.glue.len(), 1, "ns1.example.com glue expected");
            }
            other => panic!("expected delegation, got {other:?}"),
        }
    }

    #[test]
    fn leaf_zone_answers() {
        let z = example_zone();
        match z.lookup(&n("www.example.com"), RrType::A, false) {
            LookupOutcome::Answer {
                records,
                authority,
                additional,
            } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].rdata, a("192.0.2.80"));
                assert_eq!(authority.len(), 1, "apex NS in authority");
                assert_eq!(additional.len(), 1, "ns glue in additional");
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn referral_not_answer_for_delegated_name() {
        // The crucial meta-DNS-server property: the root zone must NOT
        // answer www.example.com even if another zone on the same server
        // could.
        let z = root_zone();
        assert!(matches!(
            z.lookup(&n("www.example.com"), RrType::A, false),
            LookupOutcome::Delegation(_)
        ));
    }

    #[test]
    fn cname_chain_followed_in_zone() {
        let z = example_zone();
        match z.lookup(&n("alias.example.com"), RrType::A, false) {
            LookupOutcome::Answer { records, .. } => {
                assert_eq!(records.len(), 2);
                assert_eq!(records[0].rtype, RrType::Cname);
                assert_eq!(records[1].rtype, RrType::A);
                assert_eq!(records[1].name, n("www.example.com"));
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn cname_to_external_target_stops() {
        let z = example_zone();
        match z.lookup(&n("ext.example.com"), RrType::A, false) {
            LookupOutcome::Answer { records, .. } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].rtype, RrType::Cname);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn cname_query_returns_cname_only() {
        let z = example_zone();
        match z.lookup(&n("alias.example.com"), RrType::Cname, false) {
            LookupOutcome::Answer { records, .. } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].rtype, RrType::Cname);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_synthesis() {
        let z = example_zone();
        match z.lookup(&n("anything.wild.example.com"), RrType::A, false) {
            LookupOutcome::Answer { records, .. } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].name, n("anything.wild.example.com"));
                assert_eq!(records[0].rdata, a("192.0.2.99"));
            }
            other => panic!("expected answer, got {other:?}"),
        }
        // Multi-label expansion also matches.
        assert!(matches!(
            z.lookup(&n("a.b.wild.example.com"), RrType::A, false),
            LookupOutcome::Answer { .. }
        ));
    }

    #[test]
    fn wildcard_does_not_match_existing_name() {
        let z = example_zone();
        // www exists, so *.wild never applies to it; and a query for a type
        // www lacks is NODATA.
        assert!(matches!(
            z.lookup(&n("www.example.com"), RrType::Mx, false),
            LookupOutcome::NoData { .. }
        ));
    }

    #[test]
    fn wildcard_type_mismatch_is_nodata() {
        let z = example_zone();
        assert!(matches!(
            z.lookup(&n("x.wild.example.com"), RrType::Mx, false),
            LookupOutcome::NoData { .. }
        ));
    }

    #[test]
    fn nxdomain_with_soa() {
        let z = example_zone();
        match z.lookup(&n("nope.example.com"), RrType::A, false) {
            LookupOutcome::NxDomain { soa, .. } => assert!(soa.is_some()),
            other => panic!("expected nxdomain, got {other:?}"),
        }
    }

    #[test]
    fn empty_non_terminal_is_nodata() {
        let z = example_zone();
        // deep.example.com exists only as an ENT (a.deep.example.com has data).
        assert!(matches!(
            z.lookup(&n("deep.example.com"), RrType::A, false),
            LookupOutcome::NoData { .. }
        ));
    }

    #[test]
    fn out_of_zone() {
        let z = example_zone();
        assert_eq!(
            z.lookup(&n("example.net"), RrType::A, false),
            LookupOutcome::OutOfZone
        );
    }

    #[test]
    fn any_query_returns_all_types() {
        let z = example_zone();
        match z.lookup(&n("example.com"), RrType::Any, false) {
            LookupOutcome::Answer { records, .. } => {
                let types: std::collections::HashSet<_> = records.iter().map(|r| r.rtype).collect();
                assert!(types.contains(&RrType::Soa));
                assert!(types.contains(&RrType::Ns));
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn cname_loop_terminates() {
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("a.example.com"),
            60,
            RData::Cname(n("b.example.com")),
        ))
        .unwrap();
        z.add(Record::new(
            n("b.example.com"),
            60,
            RData::Cname(n("a.example.com")),
        ))
        .unwrap();
        // Must not hang; outcome shape unimportant beyond termination.
        let _ = z.lookup(&n("a.example.com"), RrType::A, false);
    }

    #[test]
    fn dnssec_attaches_rrsig_and_ds() {
        let mut z = com_zone();
        let sig = |covered: RrType, name: &str| {
            Record::with_type(
                n(name),
                RrType::Rrsig,
                3600,
                RData::Rrsig {
                    type_covered: covered,
                    algorithm: 8,
                    labels: 2,
                    original_ttl: 3600,
                    expiration: 0,
                    inception: 0,
                    key_tag: 7,
                    signer: n("com"),
                    signature: vec![0xAA; 256],
                },
            )
        };
        z.add(Record::with_type(
            n("example.com"),
            RrType::Ds,
            3600,
            RData::Ds {
                key_tag: 7,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0; 32],
            },
        ))
        .unwrap();
        z.add(sig(RrType::Ds, "example.com")).unwrap();

        match z.lookup(&n("www.example.com"), RrType::A, true) {
            LookupOutcome::Delegation(r) => {
                assert_eq!(r.ds_records.len(), 2, "DS + its RRSIG");
            }
            other => panic!("expected delegation, got {other:?}"),
        }
        // Without DO, no DS records.
        match z.lookup(&n("www.example.com"), RrType::A, false) {
            LookupOutcome::Delegation(r) => assert!(r.ds_records.is_empty()),
            other => panic!("expected delegation, got {other:?}"),
        }
    }

    #[test]
    fn ds_at_cut_answered_by_parent() {
        let mut z = com_zone();
        z.add(Record::with_type(
            n("example.com"),
            RrType::Ds,
            3600,
            RData::Ds {
                key_tag: 7,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0; 32],
            },
        ))
        .unwrap();
        match z.lookup(&n("example.com"), RrType::Ds, false) {
            LookupOutcome::Answer { records, .. } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].rtype, RrType::Ds);
            }
            other => panic!("expected DS answer from parent, got {other:?}"),
        }
    }
}
