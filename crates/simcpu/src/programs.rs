//! A boxed reference [`ThreadProgram`].

use simcore::SimRng;

use crate::program::{Step, ThreadProgram};

/// Runs a fixed sequence of steps, then exits.
///
/// The boxed form of a script that
/// [`Machine::spawn_scripted`](crate::Machine::spawn_scripted) stores in the
/// step arena, kept as the reference the property tests replay.
#[derive(Clone, Debug)]
pub struct Script {
    steps: Vec<Step>,
    at: usize,
}

impl Script {
    /// Creates a program that replays `steps` in order and then exits.
    pub fn new(steps: Vec<Step>) -> Self {
        Script { steps, at: 0 }
    }
}

impl ThreadProgram for Script {
    fn next_step(&mut self, _rng: &mut SimRng) -> Step {
        let s = self.steps.get(self.at).copied().unwrap_or(Step::Exit);
        self.at += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    #[test]
    fn script_replays_then_exits() {
        let mut p = Script::new(vec![
            Step::Compute(SimDuration::from_micros(1)),
            Step::Block { token: 9 },
            Step::Sleep(SimDuration::from_micros(2)),
        ]);
        let mut rng = SimRng::seed_from_u64(1);
        assert!(matches!(p.next_step(&mut rng), Step::Compute(_)));
        assert_eq!(p.next_step(&mut rng), Step::Block { token: 9 });
        assert!(matches!(p.next_step(&mut rng), Step::Sleep(_)));
        assert_eq!(p.next_step(&mut rng), Step::Exit);
    }
}
