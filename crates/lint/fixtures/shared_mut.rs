// Fixture for the `shared_mut_across_shards` rule: shared mutable state
// visible to shard workers. Expected findings: the module-level
// `static mut`, the Rc binding in step() and the unsafe block in step()
// (drive() hosts a worker closure — it calls run_shards — so everything
// it reaches is worker code); the Rc in cold_setup() is unreachable from
// any worker and exempt.
static mut POOL_HITS: u64 = 0;

pub fn drive(shards: &mut [u64]) {
    run_shards(shards, 4, |s| step(s));
}

fn step(s: &mut u64) {
    let shared: Rc<u64> = Rc::new(*s);
    *s += *shared;
    unsafe {
        POOL_HITS += 1;
    }
}

fn cold_setup() -> u64 {
    let seed: Rc<u64> = Rc::new(7);
    *seed
}
