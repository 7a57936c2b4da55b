//! Network-domain metrics extracted from an engine [`Outcome`].

use osp_core::{Instance, Outcome, SetId};

use crate::frame::FrameClass;
use crate::trace::Trace;

/// Goodput summary of one router run.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputReport {
    /// Frames delivered completely.
    pub frames_delivered: usize,
    /// Total frames offered.
    pub frames_offered: usize,
    /// Weight of completely delivered frames.
    pub weight_delivered: f64,
    /// Total weight offered.
    pub weight_offered: f64,
    /// Packets actually served (assigned to their frame).
    pub packets_served: usize,
    /// Packets offered.
    pub packets_offered: usize,
    /// Complete deliveries per class `[I, P, B]`.
    pub per_class_delivered: [usize; 3],
    /// Offered frames per class `[I, P, B]`.
    pub per_class_offered: [usize; 3],
}

impl GoodputReport {
    /// Fraction of frames delivered completely.
    pub fn frame_rate(&self) -> f64 {
        if self.frames_offered == 0 {
            0.0
        } else {
            self.frames_delivered as f64 / self.frames_offered as f64
        }
    }

    /// Fraction of offered weight delivered.
    pub fn weight_rate(&self) -> f64 {
        if self.weight_offered <= 0.0 {
            0.0
        } else {
            self.weight_delivered / self.weight_offered
        }
    }

    /// Raw packet service rate — the metric a frame-oblivious router
    /// optimizes, usefully contrasted with [`frame_rate`](Self::frame_rate).
    pub fn packet_rate(&self) -> f64 {
        if self.packets_offered == 0 {
            0.0
        } else {
            self.packets_served as f64 / self.packets_offered as f64
        }
    }
}

fn class_index(class: FrameClass) -> usize {
    match class {
        FrameClass::I => 0,
        FrameClass::P => 1,
        FrameClass::B => 2,
    }
}

/// Computes the goodput of `outcome` (from running any policy over the
/// instance mapped from `trace`).
///
/// # Panics
///
/// Panics if `outcome` does not belong to an instance with one set per
/// trace frame (lengths must agree).
pub fn goodput(trace: &Trace, instance: &Instance, outcome: &Outcome) -> GoodputReport {
    assert_eq!(
        trace.frames().len(),
        instance.num_sets(),
        "outcome does not match this trace"
    );
    let mut report = GoodputReport {
        frames_delivered: outcome.completed().len(),
        frames_offered: trace.frames().len(),
        weight_delivered: outcome.benefit(),
        weight_offered: trace.frames().iter().map(|f| f.weight).sum(),
        packets_served: outcome.assignments() as usize,
        packets_offered: trace.total_packets(),
        per_class_delivered: [0; 3],
        per_class_offered: [0; 3],
    };
    for (i, f) in trace.frames().iter().enumerate() {
        report.per_class_offered[class_index(f.class)] += 1;
        if outcome.is_completed(SetId(i as u32)) {
            report.per_class_delivered[class_index(f.class)] += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::mapping::trace_to_instance;
    use crate::policy::TailDrop;
    use osp_core::run;

    fn mini_trace() -> Trace {
        let frames = vec![
            Frame {
                class: FrameClass::I,
                packets: 2,
                weight: 4.0,
            },
            Frame {
                class: FrameClass::B,
                packets: 1,
                weight: 1.0,
            },
        ];
        // Slot 0: both frames collide (capacity 1); slot 1: frame 0 alone.
        Trace::new(frames, vec![vec![0, 1], vec![0]], 1).unwrap()
    }

    #[test]
    fn tail_drop_goodput_on_mini_trace() {
        let trace = mini_trace();
        let mapped = trace_to_instance(&trace);
        let out = run(&mapped.instance, &mut TailDrop::new()).unwrap();
        let g = goodput(&trace, &mapped.instance, &out);
        // TailDrop serves frame 0 in both slots: I-frame delivered.
        assert_eq!(g.frames_delivered, 1);
        assert_eq!(g.frames_offered, 2);
        assert_eq!(g.weight_delivered, 4.0);
        assert_eq!(g.per_class_delivered, [1, 0, 0]);
        assert_eq!(g.per_class_offered, [1, 0, 1]);
        assert_eq!(g.packets_served, 2);
        assert_eq!(g.packets_offered, 3);
        assert!((g.frame_rate() - 0.5).abs() < 1e-12);
        assert!((g.weight_rate() - 0.8).abs() < 1e-12);
        assert!((g.packet_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let trace = Trace::new(vec![], vec![], 1).unwrap();
        let mapped = trace_to_instance(&trace);
        let out = run(&mapped.instance, &mut TailDrop::new()).unwrap();
        let g = goodput(&trace, &mapped.instance, &out);
        assert_eq!(g.frame_rate(), 0.0);
        assert_eq!(g.weight_rate(), 0.0);
        assert_eq!(g.packet_rate(), 0.0);
    }
}
