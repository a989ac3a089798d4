//! `StridePrefetcher::observe` against the lookup it replaced: every
//! tracker scanned from the front on every access (commit 64b5a1d, copied
//! in below as `reference::StridePrefetcher`).
//!
//! Trying the tracker the previous access matched first may only save the
//! scan: trackers have distinct pages, so any order finds the same one.
//! Covered-or-not must agree access by access, also once trackers are
//! evicted (`swap_remove` moves one under a remembered index).

use drec_check::cases;
use drec_uarch::{PrefetcherConfig, StridePrefetcher};

mod reference {
    use drec_uarch::PrefetcherConfig;

    struct Stream {
        page: u64,
        last_line: i64,
        stride: i64,
        confidence: u32,
        lru: u64,
    }

    pub struct StridePrefetcher {
        config: PrefetcherConfig,
        streams: Vec<Stream>,
        clock: u64,
    }

    impl StridePrefetcher {
        pub fn new(config: PrefetcherConfig) -> Self {
            StridePrefetcher {
                config,
                streams: Vec::with_capacity(config.streams),
                clock: 0,
            }
        }

        pub fn observe(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let line = (addr / 64) as i64;
            let page = addr >> 12;
            if let Some(stream) = self.streams.iter_mut().find(|s| s.page == page) {
                stream.lru = self.clock;
                let stride = line - stream.last_line;
                let covered;
                if stride == 0 {
                    // Same line: trivially covered (it is resident anyway).
                    covered = stream.confidence >= self.config.trigger;
                } else if stride == stream.stride {
                    stream.confidence = stream.confidence.saturating_add(1);
                    covered = stream.confidence >= self.config.trigger;
                } else {
                    stream.stride = stride;
                    stream.confidence = 1;
                    covered = false;
                }
                stream.last_line = line;
                return covered;
            }
            // Allocate (evicting the LRU stream if full).
            if self.streams.len() == self.config.streams {
                if let Some((idx, _)) = self.streams.iter().enumerate().min_by_key(|(_, s)| s.lru) {
                    self.streams.swap_remove(idx);
                }
            }
            self.streams.push(Stream {
                page,
                last_line: line,
                stride: 0,
                confidence: 0,
                lru: self.clock,
            });
            false
        }
    }
}

#[test]
fn remembered_tracker_matches_the_front_to_back_scan_access_by_access() {
    for streams in [1, 3, 16, 24] {
        let config = PrefetcherConfig {
            streams,
            trigger: 2,
        };
        cases(40, |rng| {
            let mut new = StridePrefetcher::new(config);
            let mut old = reference::StridePrefetcher::new(config);
            // Strided runs inside one page, interleaved over more pages
            // than there are trackers, with the odd access anywhere.
            let pages = rng.usize_in(1..3 * streams + 2);
            let mut cursor = vec![0u64; pages];
            let mut covered = 0;
            for step in 0..2_000 {
                let addr = if rng.u64_in(0..16) == 0 {
                    rng.next_u64() >> 8
                } else {
                    // Mostly stay on the page of the access before.
                    let page = (step / 4 + rng.usize_in(0..2)) % pages;
                    cursor[page] = (cursor[page] + 64 * (1 + page as u64 % 3)) % 4096;
                    ((page as u64) << 12) + cursor[page]
                };
                let hit = new.observe(addr);
                assert_eq!(hit, old.observe(addr), "step {step}");
                covered += usize::from(hit);
            }
            assert!(covered > 200, "the streams never got confident: {covered}");
        });
    }
}
