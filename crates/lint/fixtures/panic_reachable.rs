// Fixture for the `panic_reachable` rule: panic-family expressions in
// functions the call graph reaches from a tick entry point. Expected
// findings: the unwrap in pump(), the expect in drain_one() and the
// unreachable! in stamp(), a helper taking the `&mut Probes` bundle
// that a module's tick hands down; the panic in cold_init() (never
// called from tick) and the test-module unwrap are exempt.
struct Pump {
    q: Vec<u32>,
}

impl Pump {
    fn tick(&mut self) {
        self.pump();
    }

    fn pump(&mut self) {
        let head = self.q.pop().unwrap();
        drain_one(head);
    }
}

fn drain_one(v: u32) {
    let w = checked(v).expect("fixture: always Some");
    let _ = w;
}

fn checked(v: u32) -> Option<u32> {
    v.checked_add(1)
}

struct Probes {
    spans: Vec<u64>,
}

struct Parser {
    stamps: Vec<u64>,
}

impl Parser {
    fn tick(&mut self, cycle: u64, probes: &mut Probes) {
        self.stamp(cycle, probes);
    }

    fn stamp(&mut self, cycle: u64, probes: &mut Probes) {
        let Some(start) = self.stamps.pop() else {
            unreachable!("fixture: stamps mirror the input FIFO");
        };
        probes.spans.push(cycle - start);
    }
}

fn cold_init() {
    panic!("init-time only; not on the tick path");
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let x: Option<u32> = Some(1);
        x.unwrap();
    }
}
