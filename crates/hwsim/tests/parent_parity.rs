//! Parity with the simulators `drec-uarch` had before `CacheSim` became
//! one flat tag array and `PortScheduler::run_op` learned to skip
//! repeating issue rotations (commit 64b5a1d).
//!
//! Both rewrites claim to move no bit of any counter. This file pins
//! that through `CpuSim::simulate`: all eight models at Tiny scale ×
//! batch {1, 8, 64} × {Broadwell, Cascade Lake, Broadwell set-sampled
//! ÷4}, once on a fresh `CpuSim` and once more on the same `CpuSim`
//! (warm contents: hits, the exclusive LLC's `insert`/`invalidate`, and
//! victims). A leg is the bits of `cycles` plus one FNV-1a over the bits
//! of every `f64` the figures read: `cycles`, `seconds`,
//! `retired_instructions`, `uops`, `icache_mpki`, `tlb_walk_mpki`,
//! `branch_mpki`, `dsb_limited_frac`, `mite_limited_frac`,
//! `dram_congested_frac`, the five `topdown` fractions,
//! `mem_level_hits`, `fu_hist` and the sum of `op_seconds`.
//!
//! `PARENT` was recorded by copying this file into a checkout of 64b5a1d
//! and running `cargo test -p drec-hwsim --test parent_parity` there: the
//! one `assert_eq!` below fails with all 144 legs as its `left:`, and
//! that text, reformatted, is the array.

use drec_hwsim::{CpuCounters, CpuModel, CpuSim};
use drec_models::{ModelId, ModelScale};
use drec_workload::QueryGen;

const SEED: u64 = 19;
const BATCHES: [usize; 3] = [1, 8, 64];

fn platforms() -> [CpuModel; 3] {
    [
        CpuModel::broadwell(),
        CpuModel::cascade_lake(),
        CpuModel::broadwell().with_set_sampling(4),
    ]
}

/// `(bits of cycles, FNV-1a over the bits of every counter)`.
fn leg(c: &CpuCounters) -> (u64, u64) {
    let td = c.topdown;
    let scalars = [
        c.cycles,
        c.seconds,
        c.retired_instructions,
        c.uops,
        c.icache_mpki,
        c.tlb_walk_mpki,
        c.branch_mpki,
        c.dsb_limited_frac,
        c.mite_limited_frac,
        c.dram_congested_frac,
        td.retiring,
        td.frontend,
        td.bad_speculation,
        td.backend_core,
        td.backend_memory,
    ];
    let op_seconds: f64 = c.op_seconds.iter().map(|op| op.2).sum();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let values = scalars
        .iter()
        .chain(&c.mem_level_hits)
        .chain(&c.fu_hist)
        .chain(std::iter::once(&op_seconds));
    for value in values {
        hash = (hash ^ value.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (c.cycles.to_bits(), hash)
}

/// Every leg in model, batch, platform, fresh-then-warm order.
fn legs() -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for id in ModelId::ALL {
        let mut model = id.build(ModelScale::Tiny, SEED).expect("model builds");
        let spec = model.spec().clone();
        let mut gen = QueryGen::uniform(SEED);
        for batch in BATCHES {
            let inputs = gen.batch(&spec, batch);
            let (_, trace) = model.run_traced(inputs, batch).expect("trace runs");
            for platform in platforms() {
                let mut sim = CpuSim::new(platform);
                out.push(leg(&sim.simulate(&trace)));
                out.push(leg(&sim.simulate(&trace)));
            }
        }
    }
    out
}

#[test]
fn every_counter_bit_matches_the_parent_commit() {
    let got = legs();
    assert_eq!(got.len(), PARENT.len());
    // A warm run that equals its fresh run would mean the second
    // `simulate` exercised nothing the first did not.
    let warm_differs = got.chunks(2).filter(|pair| pair[0] != pair[1]).count();
    assert!(
        warm_differs > got.len() / 4,
        "{warm_differs} warm legs differ"
    );
    assert_eq!(got, PARENT);
}

const PARENT: [(u64, u64); 144] = [
    (0x40E0B8CBFDDABEF4, 0x88697F1E834B08E9),
    (0x40E0208D00000000, 0xB53F0DCEE158D362),
    (0x40E069FD023D70A4, 0x806B791CC094A773),
    (0x40DF800BF0000000, 0x9FF0952E6D999E5E),
    (0x40E06C9C8B11A6DD, 0x1CEF16792DEE4BEE),
    (0x40E0208D00000000, 0xB53F0DCEE158D362),
    (0x40E3405C55BAE37D, 0xBB4DCF68A9A9F3BF),
    (0x40E1B6ACCCCCCCCD, 0x870040A0016D4513),
    (0x40E1C5195B621B78, 0x91BECB2D1175B41E),
    (0x40E0BC6FC0000000, 0x87B34AD07CFDD33D),
    (0x40E29850CC5E28FB, 0x177231F612973B22),
    (0x40E1B6ACCCCCCCCD, 0x870040A0016D4513),
    (0x40EE929E0ECBB6DA, 0x76EC5F7C690D94D2),
    (0x40E8B9AA8A4B7D0E, 0xBAFCC1CC7B2029C8),
    (0x40E8ADBEB9D1FAC1, 0x2B9C0D897FC4CECE),
    (0x40E57DBCD95A708E, 0x289BA0AEFAC13197),
    (0x40EB056888656D0A, 0xD4FD9CF69269BE69),
    (0x40E886CBBECB47F1, 0xE99D8DB0776349D6),
    (0x40E2D8E22B1F0074, 0x73667FACB699D863),
    (0x40E0928F80000000, 0x706C98291762443E),
    (0x40E25581F919955D, 0xA95CA8FBBE10AC6A),
    (0x40E003D5975C28F6, 0x16C8B714834FB396),
    (0x40E282F20107C466, 0x5999FB7AD473EFF5),
    (0x40E0928F80000000, 0x706C98291762443E),
    (0x40E5751EB68161E9, 0x4A8D7F7D0385819C),
    (0x40E18780CCCCCCCD, 0x27D33FE54585E52F),
    (0x40E3D75A50D47594, 0x2F56BFB7587B9E67),
    (0x40E0CA865999999A, 0x46B4E57A636309A2),
    (0x40E44B1692C9BA1B, 0x0CAF0C7A5B80EEF8),
    (0x40E18780CCCCCCCD, 0x27D33FE54585E52F),
    (0x40F212B80B16180B, 0xD20DAF77ECFF3388),
    (0x40E7C971D38C53CC, 0xFDB13C40F3F6169A),
    (0x40ED2CF73C350370, 0x88CC3EBEC87FECC1),
    (0x40E525D8A5B77558, 0x31AA260F17CD40AF),
    (0x40ED18C7485C2206, 0x71FE4990F922E4C1),
    (0x40E766D2FEBE7241, 0x930166C9820FFF48),
    (0x40E459BCB7D3E51C, 0x965DD96BC06EF68F),
    (0x40E2193277777777, 0x313D877201F72F7C),
    (0x40E3BF45E6A04FC6, 0x1F741E32F1869467),
    (0x40E15FDD7DC28F5C, 0x6CBC04F7AB524535),
    (0x40E3E36F3F1FDF5F, 0x1E349CBD99347BAB),
    (0x40E2193277777777, 0x313D877201F72F7C),
    (0x40E8C997A943362C, 0xC3B198FD038341CE),
    (0x40E397113F577A96, 0x35904753E0EB8BF8),
    (0x40E664BD58829927, 0xC8BAFC5BA71F69AB),
    (0x40E287B998DC4617, 0xF9348C0770A8CE0D),
    (0x40E6BD818D1231C4, 0x2D25CE575FA973B7),
    (0x40E395C000000000, 0x4F2E78F31F94E83E),
    (0x40F88D5F00986697, 0x9F834668110CA36A),
    (0x40EF769AF6F08667, 0x39F06FB139FD22D4),
    (0x40F32777C459D9D7, 0x01B039E45231C78D),
    (0x40EA5FFD440D91A7, 0xC12587E951E86273),
    (0x40F2A33341AEDE54, 0x1DB657C2A4E8F426),
    (0x40EED08430C186B0, 0x6E4FC943EC8A2388),
    (0x40EEC0D15B81E313, 0x9CD1759D3BE09C14),
    (0x40EB99D811111111, 0x818322E72711F8B8),
    (0x40EDE02599A3608B, 0xFDBED4B607545732),
    (0x40EAE9673A8F5C27, 0x22DD9A9EED31D5D1),
    (0x40EE0D82BC93B039, 0x13F49DB1207B79C4),
    (0x40EB99D811111111, 0x818322E72711F8B8),
    (0x40F2AE9B9F371BE2, 0xEF968FED08516A53),
    (0x40EF782D19892B7C, 0x3F5D3DA34CD95DB8),
    (0x40F101BDB9F38A50, 0x00242D034F492D62),
    (0x40EDB7D0835F31A7, 0x1D361139520DD472),
    (0x40F190415F8A3830, 0x8FBA5B780E6D7111),
    (0x40EF5F0276D7BC3A, 0x296B17973D9E25F7),
    (0x4101D7CC18C638D1, 0xBD2199E7ACFE9D69),
    (0x40F9818497A86C8B, 0x9337B420C8EF5A25),
    (0x40FBC0BEAA2A6292, 0x3E361E9BA4235466),
    (0x40F5073406585EA5, 0x6207C3EBEB23DF0A),
    (0x40FD05F6E1A55A10, 0xD8F12426A5222E4A),
    (0x40F90AA517BABFF5, 0x5E2A37662CAB4317),
    (0x40F7661C40CF73E4, 0x3BF0100C3FB398ED),
    (0x40F6517BFA6F6659, 0x39E41F6BC7A2B7E9),
    (0x40F6CC8395BEAD8D, 0xE7A1D27CC1CA8C4B),
    (0x40F5B97F7E07E591, 0x498821AA28D97822),
    (0x40F6C3920E13BD6A, 0x1837A00D91806C17),
    (0x40F649F340D2FAF0, 0x9C22D9C04BC77B61),
    (0x40FC5AF13E891CB7, 0x16C4E1749E7B1D83),
    (0x40F9F3C15714D4AB, 0xDDCAB218D9FF9D46),
    (0x40FA3EB7ADB7176C, 0xA46A63647BE29118),
    (0x40F867C67BF41FD1, 0x7B3D2E036D408869),
    (0x40FAE7EE73F30921, 0x6A3F7F59473F51E3),
    (0x40F9DF8BCF4D0BDF, 0xCE3E3F914EE64C31),
    (0x410BB1261FFA2A2A, 0x2008F3CDF6BD66F4),
    (0x4105B9AB1B04967C, 0x259FFE8E4BDEFF28),
    (0x4105A2892C3FDAB5, 0x26B272EA62CF8061),
    (0x41018FFAEAF70605, 0x584EC01A879F0530),
    (0x41073225A62614AA, 0xB632993756A7FD81),
    (0x410530FE9C8CE70A, 0x0946BED9F53FDC95),
    (0x40FAAACF3B7F68CC, 0x4155768D53CD8A8D),
    (0x40F9D902F76D1216, 0x8F99B2546C3A7466),
    (0x40FA19151A0B606E, 0x35A1AEC22C6C3637),
    (0x40F90C75CE73BC1E, 0xBE417C300BE285D0),
    (0x40FA2C78C27ED286, 0x82E60F1B87736B04),
    (0x40F9D22555EA5807, 0x87ACBF2E071374C3),
    (0x410007778036579A, 0x86268B214EDDF7F6),
    (0x40FD96183AED36F2, 0x65B74673EC939D47),
    (0x40FDCF0FFF114E3A, 0x07DEF6D81262BA5C),
    (0x40FBD4E4507EAEC6, 0xF7C03080ECFAECCB),
    (0x40FE7D7DE67D40B7, 0xCD369BB37A8C614D),
    (0x40FD804BDA774F7E, 0x95F1A781F4C30C0C),
    (0x410DC1EE2C7074FD, 0x1E927B53B0E1379B),
    (0x410785E248E2D0DE, 0x4C15951C5AFDE15A),
    (0x41077F8566352D65, 0x767BFC215E0720E2),
    (0x410358A087D68A9D, 0x9F2EA0D51631A888),
    (0x410936769B2B4DD0, 0xD2E405B4A6062781),
    (0x4106F25C458A6223, 0x4CA6648D029490DC),
    (0x4102974F04EE7D71, 0x0C0AB61C7721FD98),
    (0x410232ABC0000000, 0x393ECB0586426613),
    (0x41024C0DCD1275B5, 0x0F622583BE40FBD9),
    (0x4101B9912AA3D70A, 0x20CBF2DF7DEBEA51),
    (0x41026B856CFD504C, 0x24069F064C4C4B86),
    (0x410232ABC0000000, 0x393ECB0586426613),
    (0x4103CC2FDA2BEBEC, 0x8D45772819D336EB),
    (0x4102BDE35A91E986, 0xD4C4225EAF7128E7),
    (0x4102F7F203ABBA20, 0xE96BD3AF61EDD9B8),
    (0x41021E2CC49DDC0D, 0x7BF39149A01F16D0),
    (0x41035B9D2DBA5393, 0x60DF37F6FA300354),
    (0x4102BC008B9ACD6A, 0x0F216E57797B338B),
    (0x4109E95708B60518, 0x9D624ED6E787F25C),
    (0x41068DC2970E0BCD, 0xC0D72C2438E656F1),
    (0x41074DA93A32E836, 0x41F88D990C713DE5),
    (0x4105350484D7A1D1, 0x8936C6755243C01C),
    (0x41080159236B4E03, 0x0D7BFBF643B9DD05),
    (0x4106707F46876955, 0x43DE8FD2ACA0ED94),
    (0x4104D473476D9F3F, 0x3173D4E93700931D),
    (0x4104911780000000, 0x72207F5673EEEE1D),
    (0x41049762B90E4467, 0xADDE39BF838098EE),
    (0x41046432910A3D71, 0xFAFCF99A6C667A45),
    (0x4104BA0950BAEF03, 0xF4D0667F78CAD620),
    (0x4104911780000000, 0x72207F5673EEEE1D),
    (0x41062672FBDE2252, 0x0D4CA3BA4CFB296F),
    (0x410592B280000000, 0x390B671603189AA9),
    (0x410569299966C8C1, 0xBD95BBF8BEE913EE),
    (0x41050135D6666666, 0x93F32E228E0917DA),
    (0x4105E10C940994DF, 0x04F9EBDECAF710A8),
    (0x410592B280000000, 0x390B671603189AA9),
    (0x410FA3ED18ABD012, 0x8C623F4A497B69DE),
    (0x410D25750BC25EBC, 0x08E7BA05892040A6),
    (0x410B7237FFF70711, 0xEDD443BBCCEAA723),
    (0x410A2358CA524FF9, 0xDB8CEC45FD694208),
    (0x410E1DC92B832583, 0xD1E3F81ED7625029),
    (0x410D11058247D453, 0x74CDE995EDCD6616),
];
