//! The admission contract of `QUERIES.md`, on every index in its table:
//! an unknown source is reported before an unknown destination, a window
//! starting at the index's horizon is `IntervalOutOfRange`, and a self
//! query inside the universe is reachable, at its window start whenever
//! the index reports an arrival. Every index runs one check,
//! `Query::admit`, so these answers are the same everywhere.

use streach::contact::extract_contacts;
use streach::ext::UncertainEvent;
use streach::prelude::*;

#[test]
fn every_index_admits_queries_alike() {
    let d_t = 25.0f32;
    let store = RwpConfig {
        env: Environment::square(300.0),
        num_objects: 8,
        horizon: 60,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 3.0,
        pause_ticks_max: 2,
    }
    .generate(34);
    let (n, horizon) = (store.num_objects(), store.horizon());
    let contacts = extract_contacts(&store, TimeInterval::new(0, horizon - 1), d_t);
    let dn = DnGraph::build(&store, d_t);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let grid_params = GridParams {
        temporal: 10,
        cell_size: 100.0,
        threshold: d_t,
        ..GridParams::default()
    };
    let grid = ReachGrid::build(&store, grid_params).expect("grid builds");
    let graph = ReachGraph::build(&dn, &mr, GraphParams::default()).expect("graph builds");
    let grail = GrailDisk::build(&dn, 4, 0xAD, 4096, 32).expect("grail builds");
    let live = LiveConfig::graph(GraphParams::default(), BuildBudget::bytes(64 << 10))
        .builder()
        .build_sharded(n)
        .expect("live index creates");
    for &c in &contacts {
        live.append(c).expect("append accepted");
    }
    live.compact().expect("live compaction");
    let uevents: Vec<UncertainEvent> = contacts
        .iter()
        .flat_map(|c| {
            let (a, b) = (c.a, c.b);
            c.interval
                .ticks()
                .map(move |t| UncertainEvent { t, a, b, p: 0.9 })
        })
        .collect();

    let (spj, memory, grail_mem) = (
        Spj::new(&grid),
        MemoryHn::new(&dn, &mr),
        GrailMem::new(&dn, 4, 0xAD),
    );
    let uncertain = UReachGraph::build(n, horizon, &uevents);
    let non_immediate = NonImmediateIndex::build(&store, d_t, 2);
    let (reach, certain) = (QueryKind::Reach, QueryKind::Uncertain { threshold: 0.5 });
    let indexes: [(&dyn ReachIndex, QueryKind, Time); 9] = [
        (&grid, reach, horizon),
        (&spj, reach, horizon),
        (&graph, reach, horizon),
        (&memory, reach, horizon),
        (&grail, reach, horizon),
        (&grail_mem, reach, horizon),
        (&live, reach, live.now()),
        (&uncertain, certain, horizon),
        (&non_immediate, reach, horizon),
    ];
    let unknown = n as u32;
    for (index, kind, h) in indexes {
        let name = index.name();
        let ask = |s: u32, d: u32, window| {
            let request = ReachRequest::reach(ObjectId(s), window, ObjectId(d)).with_kind(kind);
            index.answer(&request)
        };
        let whole = TimeInterval::new(0, h - 1);
        assert_eq!(
            ask(unknown + 1, unknown, whole).map(|a| a.outcome),
            Err(IndexError::UnknownObject(ObjectId(unknown + 1))),
            "{name}: an unknown source is reported first"
        );
        assert_eq!(
            ask(0, unknown, whole).map(|a| a.outcome),
            Err(IndexError::UnknownObject(ObjectId(unknown))),
            "{name}: an unknown destination"
        );
        let past = TimeInterval::new(h, h + 5);
        assert_eq!(
            ask(0, 1, past).map(|a| a.outcome),
            Err(IndexError::IntervalOutOfRange {
                requested: past,
                horizon: h
            }),
            "{name}: a window starting at the horizon"
        );
        let own = ask(1, 1, TimeInterval::new(3, h + 5)).expect("self query answers");
        assert!(own.reachable(), "{name}: a self query is reachable");
        assert_eq!(
            own.outcome.earliest,
            Some(3),
            "{name}: a self query arrives at its window start"
        );
    }
}
