//! `SKC1` — the certificate wire encoding.
//!
//! A self-describing big-endian byte format, written and read with the
//! same `sekitei_util` codec as the `SKO1` outcome framing: fixed magic,
//! explicit lengths, option tags, and hard rejection of trailing bytes.
//! The blob travels opaquely inside `SKO1` responses and in `--emit-cert`
//! files; both ends speak only this module.

use crate::{
    BoundTrail, CertStep, CertViolation, GapBasis, GoalWitness, OutcomeClass, PlanCertificate,
    PrecondWitness, Provenance,
};
use sekitei_model::{ActionId, GVarId, PropId};
use sekitei_util::{Reader, Truncated, Writer};

/// Leading magic of every encoded certificate.
pub const CERT_MAGIC: &[u8; 4] = b"SKC1";

/// Upper bound on any single length field, to bound allocation on
/// malformed input before the payload is validated.
const MAX_LEN: u32 = 1 << 22;

// ---------------------------------------------------------------- encode

/// The certificate's own forms on top of the shared codec.
trait Enc {
    fn opt_f64(&mut self, v: Option<f64>);
    fn provenance(&mut self, p: Provenance);
    fn gvar_value(&mut self, w: &(GVarId, f64));
}

impl Enc for Writer {
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }
    fn provenance(&mut self, p: Provenance) {
        match p {
            Provenance::Init => self.u8(0),
            Provenance::Step(k) => {
                self.u8(1);
                self.u32(k);
            }
        }
    }
    fn gvar_value(&mut self, &(v, x): &(GVarId, f64)) {
        self.u32(v.index() as u32);
        self.f64(x);
    }
}

/// Serialize a certificate to its `SKC1` byte form.
pub fn encode_certificate(cert: &PlanCertificate) -> Vec<u8> {
    let mut e = Writer::with_capacity(256);
    e.raw(CERT_MAGIC);
    e.u32(cert.version);
    e.u64(cert.task_fingerprint);
    e.u8(match cert.outcome {
        OutcomeClass::Exact => 0,
        OutcomeClass::Degraded => 1,
        OutcomeClass::AnytimeIncumbent => 2,
        OutcomeClass::ChurnRepair => 3,
    });
    e.seq(&cert.steps, |e, s| {
        e.u32(s.action.index() as u32);
        e.str(&s.name);
        e.seq(&s.preconds, |e, w| {
            e.u32(w.prop.index() as u32);
            e.provenance(w.by);
        });
        e.seq(&s.writes, Enc::gvar_value);
    });
    e.seq(&cert.sources, Enc::gvar_value);
    e.seq(&cert.goals, |e, g| {
        e.u32(g.prop.index() as u32);
        e.provenance(g.by);
    });
    let b = &cert.bound;
    e.f64(b.plan_cost);
    e.opt_f64(b.root_bound);
    e.opt_f64(b.frontier_bound);
    e.u8(match b.gap_basis {
        GapBasis::Proved => 0,
        GapBasis::RootBound => 1,
        GapBasis::FrontierBound => 2,
        GapBasis::Unbounded => 3,
    });
    e.opt_f64(b.claimed_gap);
    let mut flags = 0u8;
    for (bit, on) in [
        b.incumbent_cutoff,
        b.budget_exhausted,
        b.deadline_hit,
        b.drain_mode,
        b.dominance,
        b.symmetry,
    ]
    .into_iter()
    .enumerate()
    {
        if on {
            flags |= 1 << bit;
        }
    }
    e.u8(flags);
    e.into_vec()
}

// ---------------------------------------------------------------- decode

impl From<Truncated> for CertViolation {
    fn from(t: Truncated) -> Self {
        CertViolation::Malformed(t.to_string())
    }
}

/// The certificate's own forms on top of the shared codec.
trait Dec {
    fn opt_f64(&mut self) -> Result<Option<f64>, CertViolation>;
    fn len(&mut self) -> Result<usize, CertViolation>;
    fn list<T>(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<T, CertViolation>,
    ) -> Result<Vec<T>, CertViolation>;
    fn str(&mut self) -> Result<String, CertViolation>;
    fn provenance(&mut self) -> Result<Provenance, CertViolation>;
    fn gvar_value(&mut self) -> Result<(GVarId, f64), CertViolation>;
}

impl Dec for Reader<'_> {
    fn opt_f64(&mut self) -> Result<Option<f64>, CertViolation> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            t => Err(CertViolation::Malformed(format!("bad option tag {t}"))),
        }
    }
    fn len(&mut self) -> Result<usize, CertViolation> {
        let n = self.u32()?;
        if n > MAX_LEN {
            return Err(CertViolation::Malformed(format!("length {n} exceeds limit")));
        }
        Ok(n as usize)
    }
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, CertViolation>,
    ) -> Result<Vec<T>, CertViolation> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
    fn str(&mut self) -> Result<String, CertViolation> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CertViolation::Malformed("non-UTF-8 name".into()))
    }
    fn provenance(&mut self) -> Result<Provenance, CertViolation> {
        match self.u8()? {
            0 => Ok(Provenance::Init),
            1 => Ok(Provenance::Step(self.u32()?)),
            t => Err(CertViolation::Malformed(format!("bad provenance tag {t}"))),
        }
    }
    fn gvar_value(&mut self) -> Result<(GVarId, f64), CertViolation> {
        Ok((GVarId::from_index(self.u32()? as usize), self.f64()?))
    }
}

/// Deserialize an `SKC1` certificate, rejecting malformed or trailing bytes.
pub fn decode_certificate(bytes: &[u8]) -> Result<PlanCertificate, CertViolation> {
    let mut d = Reader::new(bytes);
    if d.take(4)? != CERT_MAGIC {
        return Err(CertViolation::Malformed("bad magic (expected SKC1)".into()));
    }
    let version = d.u32()?;
    let task_fingerprint = d.u64()?;
    let outcome = match d.u8()? {
        0 => OutcomeClass::Exact,
        1 => OutcomeClass::Degraded,
        2 => OutcomeClass::AnytimeIncumbent,
        3 => OutcomeClass::ChurnRepair,
        t => return Err(CertViolation::Malformed(format!("bad outcome class {t}"))),
    };
    // struct fields below are read in the order they are written
    let steps = d.list(|d| {
        Ok(CertStep {
            action: ActionId::from_index(d.u32()? as usize),
            name: d.str()?,
            preconds: d.list(|d| {
                Ok(PrecondWitness {
                    prop: PropId::from_index(d.u32()? as usize),
                    by: d.provenance()?,
                })
            })?,
            writes: d.list(Dec::gvar_value)?,
        })
    })?;
    let sources = d.list(Dec::gvar_value)?;
    let goals = d.list(|d| {
        Ok(GoalWitness { prop: PropId::from_index(d.u32()? as usize), by: d.provenance()? })
    })?;
    let plan_cost = d.f64()?;
    let root_bound = d.opt_f64()?;
    let frontier_bound = d.opt_f64()?;
    let gap_basis = match d.u8()? {
        0 => GapBasis::Proved,
        1 => GapBasis::RootBound,
        2 => GapBasis::FrontierBound,
        3 => GapBasis::Unbounded,
        t => return Err(CertViolation::Malformed(format!("bad gap basis {t}"))),
    };
    let claimed_gap = d.opt_f64()?;
    let flags = d.u8()?;
    if flags & !0x3f != 0 {
        return Err(CertViolation::Malformed(format!("unknown flag bits {flags:#x}")));
    }
    if !d.is_empty() {
        return Err(CertViolation::Malformed(format!(
            "{} trailing bytes after certificate",
            d.remaining()
        )));
    }
    Ok(PlanCertificate {
        version,
        task_fingerprint,
        outcome,
        steps,
        sources,
        goals,
        bound: BoundTrail {
            plan_cost,
            root_bound,
            frontier_bound,
            gap_basis,
            claimed_gap,
            incumbent_cutoff: flags & 1 != 0,
            budget_exhausted: flags & 2 != 0,
            deadline_hit: flags & 4 != 0,
            drain_mode: flags & 8 != 0,
            dominance: flags & 16 != 0,
            symmetry: flags & 32 != 0,
        },
    })
}
