//! Property tests for the fixed-size baselines: roundtrip identity over
//! arbitrary shapes, and the structural fixed-size constraint.

use dstreams_collections::{Collection, DistKind, Layout, LayoutDescriptor};
use dstreams_fixedio::{chameleon, panda};
use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{OpenMode, Pfs};
use proptest::prelude::*;

fn dist_strategy() -> impl Strategy<Value = DistKind> {
    prop_oneof![
        Just(DistKind::Block),
        Just(DistKind::Cyclic),
        (1usize..4).prop_map(DistKind::BlockCyclic),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn chameleon_roundtrips_block_arrays(
        n in 1usize..40,
        wprocs in 1usize..5,
        rprocs in 1usize..5,
        salt in any::<u32>(),
    ) {
        let pfs = Pfs::in_memory(wprocs.max(rprocs));
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(wprocs), move |ctx| {
            let layout = Layout::dense(n, wprocs, DistKind::Block).unwrap();
            let c = Collection::new(ctx, layout, |i| (i as u32) ^ salt).unwrap();
            chameleon::write_block_array(ctx, &p, "f", &c, 4, |v| v.to_le_bytes().to_vec())
                .unwrap();
        })
        .unwrap();
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(rprocs), move |ctx| {
            let layout = Layout::dense(n, rprocs, DistKind::Block).unwrap();
            let mut c = Collection::new(ctx, layout, |_| 0u32).unwrap();
            chameleon::read_block_array(ctx, &p, "f", &mut c, 4, |v, b| {
                *v = u32::from_le_bytes(b.try_into().unwrap());
            })
            .unwrap();
            for (gid, v) in c.iter() {
                assert_eq!(*v, (gid as u32) ^ salt);
            }
        })
        .unwrap();
    }

    #[test]
    fn panda_roundtrips_any_hpf_distribution(
        n in 1usize..40,
        wprocs in 1usize..5,
        rprocs in 1usize..5,
        wkind in dist_strategy(),
        rkind in dist_strategy(),
        salt in any::<u32>(),
    ) {
        let pfs = Pfs::in_memory(wprocs.max(rprocs));
        let schema = panda::Schema {
            fields: vec![panda::SchemaField { name: "v".into(), elem_size: 4 }],
        };
        let sc = schema.clone();
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(wprocs), move |ctx| {
            let layout = Layout::dense(n, wprocs, wkind).unwrap();
            let c = Collection::new(ctx, layout, |i| (i as u32).wrapping_mul(salt | 1)).unwrap();
            panda::write_array(ctx, &p, "f", &c, &sc, |_, v| v.to_le_bytes().to_vec()).unwrap();
        })
        .unwrap();
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(rprocs), move |ctx| {
            let layout = Layout::dense(n, rprocs, rkind).unwrap();
            let mut c = Collection::new(ctx, layout, |_| 0u32).unwrap();
            panda::read_field(ctx, &p, "f", &mut c, "v", |v, b| {
                *v = u32::from_le_bytes(b.try_into().unwrap());
            })
            .unwrap();
            for (gid, v) in c.iter() {
                assert_eq!(*v, (gid as u32).wrapping_mul(salt | 1));
            }
        })
        .unwrap();
    }

    #[test]
    fn any_size_deviation_is_rejected(
        n in 2usize..20,
        bad_index_pick in any::<usize>(),
        delta in 1usize..8,
        grow in any::<bool>(),
    ) {
        let bad = bad_index_pick % n;
        let pfs = Pfs::in_memory(1);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let layout = Layout::dense(n, 1, DistKind::Block).unwrap();
            let c = Collection::new(ctx, layout, |i| i).unwrap();
            let enc = |v: &usize| {
                let base = 8usize;
                let len = if *v == bad {
                    if grow { base + delta } else { base - delta.min(base) }
                } else {
                    base
                };
                vec![0u8; len]
            };
            let err = chameleon::write_block_array(ctx, &p, "x", &c, 8, enc).unwrap_err();
            assert!(matches!(err, dstreams_fixedio::FixedIoError::SizeViolation { .. }));
        })
        .unwrap();
    }
}

/// A Panda header whose schema claims `u32::MAX` fields is not an array
/// file: the count is capped by the header bytes before anything is
/// allocated for it.
#[test]
fn panda_rejects_a_field_count_the_header_cannot_hold() {
    let pfs = Pfs::in_memory(1);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(1), move |ctx| {
        let schema = panda::Schema {
            fields: vec![panda::SchemaField {
                name: "v".into(),
                elem_size: 4,
            }],
        };
        let layout = Layout::dense(6, 1, DistKind::Block).unwrap();
        let mut c = Collection::new(ctx, layout, |i| i as u32).unwrap();
        panda::write_array(ctx, &p, "f", &c, &schema, |_, v| v.to_le_bytes().to_vec()).unwrap();
        // Magic, then the layout descriptor, then the field count.
        let count_at = 8 + LayoutDescriptor::WIRE_LEN as u64;
        let fh = p.open(false, "f", OpenMode::Create).unwrap();
        fh.write_at(ctx, count_at, &u32::MAX.to_le_bytes()).unwrap();
        let err = panda::read_field(ctx, &p, "f", &mut c, "v", |_, _| {}).unwrap_err();
        assert!(
            matches!(err, dstreams_fixedio::FixedIoError::NotAnArrayFile(_)),
            "{err:?}"
        );
    })
    .unwrap();
}
