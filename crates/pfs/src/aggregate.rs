//! Two-phase collective buffering (aggregator I/O).
//!
//! When a [`dstreams_machine::CollectiveConfig`] is present on the
//! machine, the ordered collectives in [`crate::FileHandle`] route
//! through this module instead of issuing one physical transfer per
//! rank. A deterministic subset of ranks — the *aggregators* — each
//! owns a contiguous *file domain* of the region the collective
//! touches. Non-aggregators ship their blocks (or receive their spans)
//! over the ordinary message layer in a *shuttle* phase, and each
//! aggregator then issues a single coalesced, optionally
//! stripe-aligned, `write_at`/`read_at` against storage. Unaligned
//! region heads are handled by *data sieving*: the aggregator reads the
//! stripe head back and rewrites the whole span as one aligned
//! operation.
//!
//! The result is byte-identical to the direct path — same file image,
//! same per-rank offsets, same returned digests — but the physical
//! operation count drops from `nprocs` to the number of aggregators,
//! which is where the latency term of the collective cost model lives.
//! Shuttle traffic is visible in traces as `AggShuttle` events (paired
//! send/receive halves; `dsverify` checks their conservation).
//!
//! Fault composition mirrors the direct path:
//!
//! * **Transient** faults are retired at the head of the operation.
//! * **Torn** writes ship the persisted prefix zero-padded to full
//!   length — byte-identical to the direct path, whose unwritten suffix
//!   of freshly appended space reads back as zeros.
//! * **Crash** (power-cut): the blocking *read* dies on entry exactly
//!   like the direct path. Writes (and begin-variant reads) keep the
//!   crashed rank participating through the coordination so peers and
//!   aggregators are not stranded mid-shuttle; the closing crash-flag
//!   all-reduce then tells every survivor the record must not be sealed
//!   (surfaced through [`FileHandle::take_peer_crashed`] or
//!   [`crate::IoHandle::peer_crashed`]), crashed aggregators are
//!   excluded from domain ownership, and the rank is marked dead at the
//!   end. A surviving aggregator re-covers the dead rank's file domain
//!   on the next collective, because domains are recomputed from the
//!   live set every operation.

use std::borrow::Cow;

use dstreams_machine::wire::Reader;
use dstreams_machine::{
    CollectiveConfig, FaultDecision, MachineError, NodeCtx, Step, VTime, AGG_SHUTTLE_RETRY_BASE,
    AGG_SHUTTLE_TAG,
};
use dstreams_trace::{EventKind, FaultKind, PfsOp};

use crate::checksum::ChunkSum;
use crate::error::PfsError;
use crate::file::{
    charge_collective, check_my_size, decode_size_digests, deferred_crash, rank_crashed,
    size_digest_frame, FileHandle, ReadOutcome, WriteOutcome,
};
use crate::nonblocking::IoHandle;

/// The configured aggregator ranks minus the ranks whose transfer this
/// operation power-cuts. Every rank computes the same set from the
/// exchanged crash flags, so domain ownership never diverges.
fn live_aggregators(cc: CollectiveConfig, nprocs: usize, crashed: &[bool]) -> Vec<usize> {
    cc.aggregator_ranks(nprocs)
        .into_iter()
        .filter(|&r| !crashed[r])
        .collect()
}

/// Failover election: the configured aggregator set with every crashed
/// rank dropped (exactly like [`live_aggregators`]) and every *suspect*
/// rank deterministically replaced by the next usable rank scanning
/// forward (mod nprocs). With no suspects this equals
/// [`live_aggregators`], so engaging failover never changes the
/// fault-free domain assignment.
fn elect_aggregators(
    cc: CollectiveConfig,
    nprocs: usize,
    crashed: &[bool],
    excluded: &[bool],
) -> Vec<usize> {
    let mut taken = vec![false; nprocs];
    let mut out = Vec::new();
    for r in cc.aggregator_ranks(nprocs) {
        if crashed[r] {
            continue;
        }
        if !excluded[r] && !taken[r] {
            taken[r] = true;
            out.push(r);
            continue;
        }
        for d in 1..nprocs {
            let c = (r + d) % nprocs;
            if !crashed[c] && !excluded[c] && !taken[c] {
                taken[c] = true;
                out.push(c);
                break;
            }
        }
    }
    out
}

/// Pack a per-rank suspicion bitmask into little-endian bytes for the
/// failover suspicion exchange.
fn pack_mask(bits: &[bool]) -> Vec<u8> {
    let mut m = vec![0u8; bits.len().div_ceil(8)];
    for (r, &b) in bits.iter().enumerate() {
        if b {
            m[r / 8] |= 1 << (r % 8);
        }
    }
    m
}

/// Read bit `r` of a packed suspicion mask.
fn mask_bit(m: &[u8], r: usize) -> bool {
    m.get(r / 8).is_some_and(|byte| byte & (1 << (r % 8)) != 0)
}

/// Monotone domain boundaries: `ndomains + 1` offsets partitioning
/// `[lo, hi)` into near-equal contiguous file domains, with interior
/// boundaries snapped *down* to stripe multiples when `align` is set.
/// Snapping can collapse a boundary onto its predecessor (an empty
/// domain) but never reorders them.
fn domain_bounds(lo: u64, hi: u64, ndomains: usize, stripe: u64, align: bool) -> Vec<u64> {
    let total = hi - lo;
    let mut bounds = Vec::with_capacity(ndomains + 1);
    bounds.push(lo);
    for k in 1..ndomains as u64 {
        let mut cut = lo + (k as u128 * total as u128 / ndomains as u128) as u64;
        if align && stripe > 1 {
            cut = cut / stripe * stripe;
        }
        let prev = *bounds.last().expect("bounds start non-empty");
        bounds.push(cut.clamp(prev, hi));
    }
    if ndomains > 0 {
        bounds.push(hi);
    }
    bounds
}

/// Non-empty intersection of two half-open intervals.
fn isect(a0: u64, a1: u64, b0: u64, b1: u64) -> Option<(u64, u64)> {
    let s = a0.max(b0);
    let e = a1.min(b1);
    (s < e).then_some((s, e))
}

/// Physical span `(start, len)` an aggregator writes for the logical
/// domain `[d0, d1)`. With alignment on, an unaligned domain start is
/// extended down to its stripe boundary (the sieve head that gets read
/// back and rewritten). Only the *first* domain of an append can start
/// unaligned — interior boundaries are stripe-snapped — and its start
/// is the old end of file, so the sieve head always exists on disk.
fn physical_write_span(d0: u64, d1: u64, stripe: u64, align: bool) -> (u64, u64) {
    if d1 <= d0 {
        return (d0, 0);
    }
    let p0 = if align { d0 / stripe * stripe } else { d0 };
    (p0, d1 - p0)
}

/// Physical span `(start, len)` an aggregator reads for the logical
/// domain `[d0, d1)`: stripe-extended outward when alignment is on,
/// then clipped to the current file length (bytes past EOF read as
/// zeros in the logical domain).
fn physical_read_span(d0: u64, d1: u64, stripe: u64, align: bool, file_len: u64) -> (u64, u64) {
    if d1 <= d0 {
        return (d0.min(file_len), 0);
    }
    let (mut p0, mut p1) = (d0, d1);
    if align {
        p0 = d0 / stripe * stripe;
        p1 = d1.div_ceil(stripe) * stripe;
    }
    p1 = p1.min(file_len);
    p0 = p0.min(p1);
    (p0, p1 - p0)
}

impl FileHandle {
    /// Aggregated collective write: blocking unless `begin` (then the
    /// cost is deferred to the returned handle); the block is hashed only
    /// when `summed`, else its digest frame carries [`ChunkSum::EMPTY`].
    pub(crate) fn agg_write_ordered(
        &self,
        ctx: &NodeCtx,
        cc: CollectiveConfig,
        block: &[u8],
        begin: bool,
        summed: bool,
    ) -> Result<WriteOutcome, PfsError> {
        let _scope = ctx.collective_scope();
        let op = ctx.next_pfs_op();
        let fate = self.collective_fate(ctx, op, Some(block.len()))?;
        ctx.barrier()?;

        // Fault disclosure and the effective bytes this rank ships. A
        // torn or power-cut transfer ships its persisted prefix
        // zero-padded to full length — byte-identical to the direct
        // path, whose unwritten suffix of freshly appended space reads
        // back as zeros. The crashed rank keeps participating so the
        // aggregators it intersects are not stranded mid-shuttle.
        let my_crash = matches!(fate, FaultDecision::Crash { .. });
        let eff: Cow<'_, [u8]> = match fate {
            FaultDecision::Proceed | FaultDecision::Transient => Cow::Borrowed(block),
            FaultDecision::Torn { keep } => {
                let keep = keep.min(block.len());
                self.emit_fault(ctx, FaultKind::Torn, op, keep as u64);
                let mut v = block[..keep].to_vec();
                v.resize(block.len(), 0);
                Cow::Owned(v)
            }
            FaultDecision::Crash { keep } => {
                let k = keep.unwrap_or(0).min(block.len());
                self.emit_fault(ctx, FaultKind::Crash, op, k as u64);
                let mut v = block[..k].to_vec();
                v.resize(block.len(), 0);
                Cow::Owned(v)
            }
        };

        // Size/digest/crash-flag exchange; rank 0 supplies the append
        // base. The digest is of the full intended block even for a
        // torn transfer (torn writes are silent; seal verification
        // catches them later) — identical to the direct path, and
        // likewise EMPTY unless `summed`.
        let my_sum = if summed {
            ChunkSum::of(block)
        } else {
            ChunkSum::EMPTY
        };
        let frame = size_digest_frame(block.len(), my_sum, &[my_crash as u8]);
        let (base, frames) =
            self.exchange_write_plan(ctx, &[Step::Gather, Step::Plan, Step::Broadcast], frame)?;
        let (sizes, digests, crashed) = decode_size_digests(&frames, true)?;
        check_my_size(ctx, &sizes, block.len())?;
        let nprocs = ctx.nprocs();
        let mut offsets = Vec::with_capacity(nprocs);
        let mut acc = base;
        for &s in &sizes {
            offsets.push(acc);
            acc += s;
        }
        let total = acc - base;
        let me = ctx.rank();
        let my_off = offsets[me];

        // File-domain assignment over the appended region, from the
        // live aggregator set — recomputed every operation, so a
        // surviving aggregator re-covers a dead peer's domain.
        //
        // Under a message fault plan the shuttle phase additionally runs
        // inside a failover loop: a send that hits a dead edge records
        // the unreachable owner as a *suspect* instead of failing the
        // operation, every rank exchanges its suspicions over the
        // collective plane (which edge cuts never sever), the domains
        // are re-elected with suspects replaced by promotion, and all
        // slices are re-shipped on a fresh per-round tag. The loop
        // settles when a round surfaces no new suspect; sealed records
        // are therefore byte-identical to the fault-free run. A record
        // that genuinely cannot be completed — a killed rank's data is
        // unreachable from everyone — ends with `data_lost` set, which
        // folds into the closing flag exchange so the record is never
        // sealed.
        let failover = ctx.msg_faults_active();
        let stripe = self.pfs.model.stripe_bytes.max(1);
        let mut excluded = vec![false; nprocs];
        let mut round: u32 = 0;
        let (live, bounds, my_dom, data_lost) = loop {
            let live = if failover {
                elect_aggregators(cc, nprocs, &crashed, &excluded)
            } else {
                live_aggregators(cc, nprocs, &crashed)
            };
            let bounds = domain_bounds(base, base + total, live.len(), stripe, cc.stripe_align);
            if failover && live.is_empty() {
                break (live, bounds, None, true);
            }
            let tag = if round == 0 {
                AGG_SHUTTLE_TAG
            } else {
                AGG_SHUTTLE_RETRY_BASE + round
            };
            let mut suspects = vec![false; nprocs];

            // Shuttle phase, sends first: every rank slices its block
            // across the domains in ascending order. Sends never block,
            // so draining all sends before any receive is deadlock-free.
            for (k, &owner) in live.iter().enumerate() {
                if owner == me {
                    continue;
                }
                if let Some((s, e)) = isect(
                    my_off,
                    my_off + block.len() as u64,
                    bounds[k],
                    bounds[k + 1],
                ) {
                    match ctx.send(
                        owner,
                        tag,
                        &eff[(s - my_off) as usize..(e - my_off) as usize],
                    ) {
                        Ok(()) => ctx.emit_with(|| EventKind::AggShuttle {
                            outgoing: true,
                            peer: owner,
                            bytes: e - s,
                            file: self.file.name().to_string(),
                            op: PfsOp::Write,
                            offset: Some(s),
                        }),
                        Err(MachineError::PeerGone { rank }) if failover => {
                            suspects[rank] = true;
                        }
                        Err(err) => return Err(err.into()),
                    }
                }
            }

            // Aggregator side: receive the intersecting slices
            // (ascending source rank — each (source, owner) pair
            // carries exactly one slice per round) and assemble the
            // domain.
            let my_domain = live.iter().position(|&r| r == me);
            let mut dom = None;
            if let Some(k) = my_domain {
                let (d0, d1) = (bounds[k], bounds[k + 1]);
                let mut d = vec![0u8; (d1 - d0) as usize];
                for (r, (&r_off, &r_size)) in offsets.iter().zip(&sizes).enumerate() {
                    if let Some((s, e)) = isect(r_off, r_off + r_size, d0, d1) {
                        let dst = &mut d[(s - d0) as usize..(e - d0) as usize];
                        if r == me {
                            dst.copy_from_slice(&eff[(s - my_off) as usize..(e - my_off) as usize]);
                        } else {
                            match ctx.recv(r, tag) {
                                Ok(piece) => {
                                    if piece.len() as u64 != e - s {
                                        return Err(PfsError::CollectiveMismatch(
                                            "aggregated write: shuttle slice size mismatch".into(),
                                        ));
                                    }
                                    ctx.emit_with(|| EventKind::AggShuttle {
                                        outgoing: false,
                                        peer: r,
                                        bytes: e - s,
                                        file: self.file.name().to_string(),
                                        op: PfsOp::Write,
                                        offset: Some(s),
                                    });
                                    dst.copy_from_slice(&piece);
                                }
                                Err(MachineError::PeerGone { .. }) if failover => {
                                    // The sender that gave up on this
                                    // edge is reporting *us* suspect in
                                    // the exchange below; leave the hole
                                    // — either the domain moves to a
                                    // reachable owner next round, or the
                                    // record goes unsealed.
                                }
                                Err(err) => return Err(err.into()),
                            }
                        }
                    }
                }
                dom = Some(d);
            }
            if !failover {
                break (
                    live,
                    bounds,
                    my_domain.map(|k| (k, dom.expect("owner domain"))),
                    false,
                );
            }

            // Suspicion exchange over the collective plane, which edge
            // cuts and kills never sever — every rank leaves with the
            // same verdict, so the next election cannot diverge.
            let verdicts = ctx.all_gather(pack_mask(&suspects))?;
            let mut news = false;
            for v in &verdicts {
                for (r, ex) in excluded.iter_mut().enumerate() {
                    if mask_bit(v, r) && !*ex {
                        *ex = true;
                        news = true;
                    }
                }
            }
            if !news {
                break (
                    live,
                    bounds,
                    my_domain.map(|k| (k, dom.expect("owner domain"))),
                    false,
                );
            }
            round += 1;
            if round as usize > nprocs {
                // Belt and braces: every extra round excluded at least
                // one more rank, so this bound is unreachable — but a
                // bounded loop is a theorem the reader needn't prove.
                break (live, bounds, None, true);
            }
        };

        // Physical phase: one coalesced write per settled domain owner,
        // sieving the unaligned head of the appended region.
        let my_domain = my_dom.as_ref().map(|&(k, _)| k);
        if let Some((k, mut dom)) = my_dom {
            let (d0, d1) = (bounds[k], bounds[k + 1]);
            if d1 > d0 {
                let (p0, _plen) = physical_write_span(d0, d1, stripe, cc.stripe_align);
                if p0 < d0 {
                    // Data sieving: the appended region starts
                    // mid-stripe; read the stripe head back and rewrite
                    // the whole span as one aligned operation.
                    let mut head = vec![0u8; (d0 - p0) as usize];
                    self.file.storage.read_at(p0, &mut head, self.file.name())?;
                    head.extend_from_slice(&dom);
                    dom = head;
                }
                self.file.storage.write_at(p0, &dom, self.file.name())?;
            }
        }

        // Cost and trace accounting: one parallel operation across the
        // live aggregators' physical spans. Every rank computes the
        // same spans from the plan, so clocks stay in lockstep.
        let mut spans = Vec::with_capacity(live.len());
        let (mut phys_total, mut phys_max) = (0u64, 0u64);
        for k in 0..live.len() {
            let (p0, plen) = physical_write_span(bounds[k], bounds[k + 1], stripe, cc.stripe_align);
            phys_total += plen;
            phys_max = phys_max.max(plen);
            spans.push((p0, plen));
        }
        let nlive = live.len();
        let cost = if nlive == 0 {
            VTime::ZERO
        } else {
            self.pfs.model.collective_cost(phys_total, phys_max, nlive)
        };
        if let Some(k) = my_domain {
            self.record_collective(ctx, PfsOp::Write, spans[k], total, phys_max, cost);
        }
        let submitted = charge_collective(ctx, begin, my_crash, cost);

        // Closing flag all-reduce: replaces the direct path's bare
        // barrier and tells every survivor whether the record this
        // collective wrote may be sealed. Bit 0: some rank power-cut
        // its transfer. Bit 1: the shuttle lost data — a slice stayed
        // unreachable even after failover. (All ranks compute the same
        // `data_lost` from the exchanged suspicions, so the bit is
        // redundant but cheap insurance against divergence.)
        let flags = ctx.all_reduce(my_crash as u64 | ((data_lost as u64) << 1), |a, b| a | b)?;
        match submitted {
            Some(op) => {
                let handle = IoHandle::new(op, deferred_crash(ctx, my_crash), flags != 0);
                Ok((my_off, digests, Some(handle)))
            }
            None if my_crash => Err(rank_crashed(ctx)),
            None => {
                if flags != 0 {
                    self.agg_peer_crash.set(true);
                }
                Ok((my_off, digests, None))
            }
        }
    }

    /// Aggregated collective read; `begin` and `summed` as in
    /// [`FileHandle::agg_write_ordered`].
    pub(crate) fn agg_read_ordered(
        &self,
        ctx: &NodeCtx,
        cc: CollectiveConfig,
        offset: u64,
        len: usize,
        begin: bool,
        summed: bool,
    ) -> Result<ReadOutcome, PfsError> {
        let _scope = ctx.collective_scope();
        let op = ctx.next_pfs_op();
        let my_crash = self.collective_read_entry(ctx, op, begin)?;
        ctx.barrier()?;

        // Span/crash-flag exchange.
        let nprocs = ctx.nprocs();
        let me = ctx.rank();
        let mut contrib = Vec::with_capacity(17);
        contrib.extend_from_slice(&offset.to_le_bytes());
        contrib.extend_from_slice(&(len as u64).to_le_bytes());
        contrib.push(my_crash as u8);
        let frames = ctx.all_gather(contrib)?;
        let mut offs = Vec::with_capacity(nprocs);
        let mut lens = Vec::with_capacity(nprocs);
        let mut crashed = Vec::with_capacity(nprocs);
        for frame in &frames {
            Reader::parse(frame, |r| {
                offs.push(r.u64()?);
                lens.push(r.u64()?);
                crashed.push(r.u8()? != 0);
                Ok(())
            })
            .map_err(|e| {
                PfsError::CollectiveMismatch(format!("aggregated read: malformed span frame: {e}"))
            })?;
        }
        let file_len = self.file.len();
        // A span past EOF fails like the direct read: the rank keeps
        // participating (empty digest) and surfaces the error after the
        // exchanges, so peers are never stranded.
        let my_fail = len > 0 && offset + len as u64 > file_len;

        // Domains partition the union of the requested spans.
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for r in 0..nprocs {
            if lens[r] > 0 {
                lo = lo.min(offs[r]);
                hi = hi.max(offs[r] + lens[r]);
            }
        }
        if hi <= lo {
            lo = 0;
            hi = 0;
        }
        let total: u64 = lens.iter().sum();
        let live = live_aggregators(cc, nprocs, &crashed);
        let stripe = self.pfs.model.stripe_bytes.max(1);
        let bounds = domain_bounds(lo, hi, live.len(), stripe, cc.stripe_align);
        let my_domain = live.iter().position(|&r| r == me);
        let mut spans = Vec::with_capacity(live.len());
        for k in 0..live.len() {
            spans.push(physical_read_span(
                bounds[k],
                bounds[k + 1],
                stripe,
                cc.stripe_align,
                file_len,
            ));
        }

        // Aggregator side: one coalesced (stripe-extended, EOF-clipped)
        // physical read per domain, then ship each requester the slice
        // of its span this domain owns (ascending requester rank).
        // Bytes past EOF stay zero in the logical domain.
        let mut dom = Vec::new();
        if let Some(k) = my_domain {
            let (d0, d1) = (bounds[k], bounds[k + 1]);
            dom = vec![0u8; (d1 - d0) as usize];
            let (p0, plen) = spans[k];
            if plen > 0 {
                let phys = self
                    .file
                    .storage
                    .read_vec(p0, plen as usize, self.file.name())?;
                if let Some((s, e)) = isect(p0, p0 + plen, d0, d1) {
                    dom[(s - d0) as usize..(e - d0) as usize]
                        .copy_from_slice(&phys[(s - p0) as usize..(e - p0) as usize]);
                }
            }
            for r in 0..nprocs {
                if r == me {
                    continue;
                }
                if let Some((s, e)) = isect(offs[r], offs[r] + lens[r], d0, d1) {
                    ctx.send(
                        r,
                        AGG_SHUTTLE_TAG,
                        &dom[(s - d0) as usize..(e - d0) as usize],
                    )?;
                    ctx.emit_with(|| EventKind::AggShuttle {
                        outgoing: true,
                        peer: r,
                        bytes: e - s,
                        file: self.file.name().to_string(),
                        op: PfsOp::Read,
                        offset: Some(s),
                    });
                }
            }
        }

        // Requester side: assemble the span from the domain owners in
        // ascending domain order. Each (owner, requester) pair carries
        // exactly one slice, so per-channel FIFO delivery suffices.
        let mut buf = vec![0u8; len];
        for (k, &owner) in live.iter().enumerate() {
            if let Some((s, e)) = isect(offset, offset + len as u64, bounds[k], bounds[k + 1]) {
                let dst = &mut buf[(s - offset) as usize..(e - offset) as usize];
                if owner == me {
                    let d0 = bounds[k];
                    dst.copy_from_slice(&dom[(s - d0) as usize..(e - d0) as usize]);
                } else {
                    let piece = ctx.recv(owner, AGG_SHUTTLE_TAG)?;
                    if piece.len() as u64 != e - s {
                        return Err(PfsError::CollectiveMismatch(
                            "aggregated read: shuttle slice size mismatch".into(),
                        ));
                    }
                    ctx.emit_with(|| EventKind::AggShuttle {
                        outgoing: false,
                        peer: owner,
                        bytes: e - s,
                        file: self.file.name().to_string(),
                        op: PfsOp::Read,
                        offset: Some(s),
                    });
                    dst.copy_from_slice(&piece);
                }
            }
        }

        // Digest exchange: every rank's digest of the bytes it received
        // — the same values the direct path's size exchange carries, so
        // seal verification folds identically. Unless `summed`, the
        // frame carries EMPTY at the same size.
        let my_sum = if summed && !my_fail {
            ChunkSum::of(&buf)
        } else {
            ChunkSum::EMPTY
        };
        let mut dig = Vec::with_capacity(16);
        dig.extend_from_slice(&my_sum.hash().to_le_bytes());
        dig.extend_from_slice(&my_sum.rpow().to_le_bytes());
        let dig_frames = ctx.all_gather(dig)?;
        let mut digests = Vec::with_capacity(nprocs);
        for frame in &dig_frames {
            let (hash, rpow) = Reader::parse(frame, |r| Ok((r.u64()?, r.u64()?))).map_err(|e| {
                PfsError::CollectiveMismatch(format!(
                    "aggregated read: malformed digest frame: {e}"
                ))
            })?;
            digests.push(ChunkSum::from_parts(hash, rpow));
        }
        if my_fail {
            return Err(PfsError::OutOfBounds {
                file: self.file.name().to_string(),
                offset,
                len,
                size: file_len,
            });
        }

        let nlive = live.len();
        let (mut phys_total, mut phys_max) = (0u64, 0u64);
        for &(_, plen) in &spans {
            phys_total += plen;
            phys_max = phys_max.max(plen);
        }
        let cost = if nlive == 0 {
            VTime::ZERO
        } else {
            self.pfs.model.collective_cost(phys_total, phys_max, nlive)
        };
        if let Some(k) = my_domain {
            self.record_collective(ctx, PfsOp::Read, spans[k], total, phys_max, cost);
        }
        let submitted = charge_collective(ctx, begin, my_crash, cost);
        let handle = submitted.map(|op| IoHandle::new(op, deferred_crash(ctx, my_crash), false));
        Ok((buf, digests, handle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfs::{OpenMode, Pfs};
    use crate::DiskModel;
    use dstreams_machine::{Machine, MachineConfig};

    #[test]
    fn domain_bounds_partition_and_stay_monotone() {
        let b = domain_bounds(100, 1100, 4, 1, false);
        assert_eq!(b, vec![100, 350, 600, 850, 1100]);
        // Aligned: interior cuts snap down to stripe multiples.
        let b = domain_bounds(100, 1100, 4, 256, true);
        assert_eq!(b.first(), Some(&100));
        assert_eq!(b.last(), Some(&1100));
        for w in b.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for &cut in &b[1..b.len() - 1] {
            assert!(cut % 256 == 0 || cut == 1100);
        }
        // Degenerate: tiny region, many domains — empty tails allowed.
        let b = domain_bounds(0, 3, 8, 64, true);
        assert_eq!(b.len(), 9);
        assert_eq!(*b.last().unwrap(), 3);
    }

    #[test]
    fn physical_spans_extend_and_clip() {
        // Write: unaligned start extends down (sieve head).
        assert_eq!(physical_write_span(100, 300, 64, true), (64, 236));
        assert_eq!(physical_write_span(128, 300, 64, true), (128, 172));
        assert_eq!(physical_write_span(100, 300, 64, false), (100, 200));
        assert_eq!(physical_write_span(100, 100, 64, true), (100, 0));
        // Read: extends both ways, clipped to EOF.
        assert_eq!(physical_read_span(100, 300, 64, true, 1000), (64, 256));
        assert_eq!(physical_read_span(100, 300, 64, true, 200), (64, 136));
        assert_eq!(physical_read_span(500, 600, 64, true, 200), (200, 0));
        assert_eq!(physical_read_span(100, 100, 64, true, 1000), (100, 0));
    }

    #[test]
    fn live_aggregators_skip_crashed_ranks() {
        let cc = CollectiveConfig {
            aggregators: 4,
            stripe_align: true,
        };
        let mut crashed = vec![false; 16];
        assert_eq!(live_aggregators(cc, 16, &crashed), vec![0, 4, 8, 12]);
        crashed[4] = true;
        assert_eq!(live_aggregators(cc, 16, &crashed), vec![0, 8, 12]);
    }

    /// The aggregated path must produce the same file image and the
    /// same per-rank offsets/digests as the direct path.
    #[test]
    fn aggregated_write_matches_direct_byte_for_byte() {
        let run = |collective: Option<CollectiveConfig>| {
            let pfs = Pfs::new(6, DiskModel::paragon_pfs(), crate::Backend::Memory);
            let p = pfs.clone();
            let mut cfg = MachineConfig::functional(6);
            cfg.collective = collective;
            let per_rank = Machine::run(cfg, move |ctx| {
                let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
                let mut outs = Vec::new();
                for round in 0..3u8 {
                    // Uneven blocks, including an empty one.
                    let n = if ctx.rank() == 2 && round == 1 {
                        0
                    } else {
                        37 * (ctx.rank() + 1) + round as usize
                    };
                    let block: Vec<u8> = (0..n)
                        .map(|i| (i as u8) ^ (ctx.rank() as u8) ^ round)
                        .collect();
                    let (off, digests) = fh.write_ordered_summed(ctx, &block).unwrap();
                    assert!(!fh.take_peer_crashed());
                    outs.push((off, digests));
                }
                outs
            })
            .unwrap();
            let size = pfs.file_size("f").unwrap() as usize;
            let p2 = pfs.clone();
            let bytes = Machine::run(MachineConfig::functional(1), move |ctx| {
                let fh = p2.open(false, "f", OpenMode::Read).unwrap();
                let mut buf = vec![0u8; size];
                fh.read_at(ctx, 0, &mut buf).unwrap();
                buf
            })
            .unwrap()[0]
                .clone();
            (per_rank, bytes)
        };
        let direct = run(None);
        for aggs in [1, 2, 3, 6] {
            let aggregated = run(Some(CollectiveConfig {
                aggregators: aggs,
                stripe_align: true,
            }));
            assert_eq!(direct, aggregated, "aggregators = {aggs}");
        }
    }

    /// Aggregated reads return the same bytes and digests as direct.
    #[test]
    fn aggregated_read_matches_direct() {
        let run = |collective: Option<CollectiveConfig>| {
            let pfs = Pfs::new(4, DiskModel::paragon_pfs(), crate::Backend::Memory);
            let p = pfs.clone();
            let mut cfg = MachineConfig::functional(4);
            cfg.collective = collective;
            Machine::run(cfg, move |ctx| {
                let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
                let block: Vec<u8> = (0..200u32)
                    .map(|i| (i as u8).wrapping_mul(ctx.rank() as u8 + 3))
                    .collect();
                fh.write_ordered(ctx, &block).unwrap();
                // Read back a shifted, uneven decomposition.
                let len = if ctx.rank() == 3 { 0 } else { 150 + ctx.rank() };
                let off = 31 * ctx.rank() as u64;
                fh.read_ordered_summed(ctx, off, len).unwrap()
            })
            .unwrap()
        };
        let direct = run(None);
        for aggs in [1, 3, 4] {
            let aggregated = run(Some(CollectiveConfig {
                aggregators: aggs,
                stripe_align: true,
            }));
            assert_eq!(direct, aggregated, "aggregators = {aggs}");
        }
    }

    #[test]
    fn elect_aggregators_promotes_past_suspects() {
        let cc = CollectiveConfig {
            aggregators: 2,
            stripe_align: true,
        };
        let none = vec![false; 4];
        // No suspects: identical to the plain live set.
        assert_eq!(
            elect_aggregators(cc, 4, &none, &none),
            live_aggregators(cc, 4, &none)
        );
        // A suspect aggregator is replaced by the next usable rank.
        let mut ex = vec![false; 4];
        ex[2] = true;
        assert_eq!(elect_aggregators(cc, 4, &none, &ex), vec![0, 3]);
        // Promotion never double-elects: with 0 and 1 unusable, both
        // configured aggregators land on distinct survivors.
        let mut ex = vec![false; 4];
        ex[0] = true;
        ex[1] = true;
        let cc1 = CollectiveConfig {
            aggregators: 2,
            stripe_align: true,
        };
        let got = elect_aggregators(cc1, 4, &none, &ex);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|&r| r == 2 || r == 3));
        assert_ne!(got[0], got[1]);
        // Everyone unusable: no aggregators at all.
        let all = vec![true; 4];
        assert!(elect_aggregators(cc, 4, &none, &all).is_empty());
        // Crashed configured ranks are dropped, not replaced (matching
        // live_aggregators), so fault-free images never shift.
        let mut crashed = vec![false; 4];
        crashed[2] = true;
        assert_eq!(elect_aggregators(cc, 4, &crashed, &none), vec![0]);
    }

    #[test]
    fn suspicion_masks_round_trip() {
        let bits = vec![
            true, false, false, true, false, true, true, false, true, false,
        ];
        let m = pack_mask(&bits);
        for (r, &b) in bits.iter().enumerate() {
            assert_eq!(mask_bit(&m, r), b);
        }
        assert!(!mask_bit(&m, 99));
    }

    /// Failover tentpole: a data edge into an aggregator is severed
    /// mid-stream, the domain is re-elected to a reachable rank, unacked
    /// slices are replayed, and the durable file stays byte-identical to
    /// the fault-free run — with the record still sealable.
    #[test]
    fn aggregator_failover_keeps_file_byte_identical() {
        use dstreams_machine::{FaultPlan, MsgFaultPlan};
        let run = |msg: Option<MsgFaultPlan>| {
            let pfs = Pfs::new(4, DiskModel::paragon_pfs(), crate::Backend::Memory);
            let p = pfs.clone();
            let mut cfg = MachineConfig::functional(4);
            cfg.collective = Some(CollectiveConfig {
                aggregators: 2,
                stripe_align: true,
            });
            if let Some(m) = msg {
                cfg = cfg.with_faults(FaultPlan::seeded(3).with_msg(m));
            }
            let per_rank = Machine::run(cfg, move |ctx| {
                let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
                let mut outs = Vec::new();
                for round in 0..3u8 {
                    let block: Vec<u8> = (0..100)
                        .map(|i| (i as u8).wrapping_mul(7) ^ (ctx.rank() as u8) ^ round)
                        .collect();
                    let out = fh.write_ordered_summed(ctx, &block).unwrap();
                    assert!(!fh.take_peer_crashed(), "sealable record expected");
                    outs.push(out);
                }
                outs
            })
            .unwrap();
            let size = pfs.file_size("f").unwrap() as usize;
            let p2 = pfs.clone();
            let bytes = Machine::run(MachineConfig::functional(1), move |ctx| {
                let fh = p2.open(false, "f", OpenMode::Read).unwrap();
                let mut buf = vec![0u8; size];
                fh.read_at(ctx, 0, &mut buf).unwrap();
                buf
            })
            .unwrap()[0]
                .clone();
            (per_rank, bytes)
        };
        let clean = run(None);
        // Rank 3 feeds aggregator 2's domain; severing that edge forces
        // a re-election (2 is replaced by promotion) and a full replay.
        let failed_over = run(Some(MsgFaultPlan::seeded(11).cut_edge(3, 2, 0)));
        assert_eq!(clean, failed_over);
        // Chaos soup without cuts: retransmission and the sequence gate
        // absorb everything, same bytes, same offsets, same digests.
        let chaotic = run(Some(
            MsgFaultPlan::seeded(77)
                .drop_ppm(150_000)
                .dup_ppm(100_000)
                .delay_ppm(100_000)
                .reorder_ppm(100_000),
        ));
        assert_eq!(clean, chaotic);
    }

    /// A killed rank's block is unreachable from everyone: the write
    /// still completes machine-wide in bounded time (no hang), but the
    /// record is reported unsealable on every rank.
    #[test]
    fn killed_rank_write_completes_unsealed() {
        use dstreams_machine::{FaultPlan, MsgFaultPlan};
        let pfs = Pfs::new(4, DiskModel::paragon_pfs(), crate::Backend::Memory);
        let p = pfs.clone();
        let mut cfg = MachineConfig::functional(4);
        cfg.collective = Some(CollectiveConfig {
            aggregators: 2,
            stripe_align: true,
        });
        cfg = cfg.with_faults(FaultPlan::seeded(3).with_msg(MsgFaultPlan::seeded(5).kill_at(1, 0)));
        let flags = Machine::run(cfg, move |ctx| {
            let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
            let block = vec![ctx.rank() as u8 + 1; 64];
            fh.write_ordered_summed(ctx, &block).unwrap();
            fh.take_peer_crashed()
        })
        .unwrap();
        assert_eq!(flags, vec![true; 4], "every rank must suppress the seal");
    }

    /// Aggregation cuts the physical operation count to the aggregator
    /// count and coalesces stripes.
    #[test]
    fn aggregation_reduces_physical_ops() {
        let run = |collective: Option<CollectiveConfig>| {
            let pfs = Pfs::new(8, DiskModel::paragon_pfs(), crate::Backend::Memory);
            let p = pfs.clone();
            let sink = dstreams_trace::TraceSink::new(8);
            let mut cfg = MachineConfig::paragon(8).traced(sink.clone());
            cfg.collective = collective;
            let times = Machine::run(cfg, move |ctx| {
                let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
                fh.write_ordered(ctx, &[7u8; 128]).unwrap();
                ctx.now()
            })
            .unwrap();
            let counts = sink.take().op_counts();
            (counts.pfs_collective_ops, counts.stripes_touched, times[0])
        };
        let (direct_ops, direct_stripes, direct_t) = run(None);
        let (agg_ops, agg_stripes, agg_t) = run(Some(CollectiveConfig {
            aggregators: 2,
            stripe_align: true,
        }));
        assert_eq!(direct_ops, 8);
        assert_eq!(agg_ops, 2);
        assert!(agg_stripes <= direct_stripes);
        assert!(
            agg_t < direct_t,
            "aggregated {agg_t:?} vs direct {direct_t:?}"
        );
    }
}
