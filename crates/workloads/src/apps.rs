//! Registry of the 14 Phoenix + PARSEC applications evaluated in
//! Figure 7 (the paper runs "14 out of 15" — `vips` does not run under
//! Graphene and is excluded here too).

use autarky_runtime::RtError;

use crate::encmem::{EncHeap, World};
use crate::{parsec, phoenix};

/// One Figure 7 application.
pub struct App {
    /// Short name (paper's x-axis label).
    pub name: &'static str,
    /// Run with a working set of roughly `pages` pages.
    pub run: fn(&mut World, &mut EncHeap, usize) -> Result<u64, RtError>,
    /// Relative paging intensity: how much of the footprint the app
    /// actively re-touches (drives the Figure 7 fault-rate differences).
    pub churn: f64,
}

/// The 14 applications in the paper's presentation order.
pub fn fig7_apps() -> Vec<App> {
    vec![
        App {
            name: "kmeans",
            run: phoenix::kmeans,
            churn: 0.9,
        },
        App {
            name: "linreg",
            run: phoenix::linreg,
            churn: 0.3,
        },
        App {
            name: "wcount",
            run: phoenix::wcount,
            churn: 0.5,
        },
        App {
            name: "pca",
            run: phoenix::pca,
            churn: 0.8,
        },
        App {
            name: "smatch",
            run: phoenix::smatch,
            churn: 0.3,
        },
        App {
            name: "mmult",
            run: phoenix::mmult,
            churn: 1.0,
        },
        App {
            name: "btrack",
            run: parsec::btrack,
            churn: 0.7,
        },
        App {
            name: "canneal",
            run: parsec::canneal,
            churn: 1.0,
        },
        App {
            name: "scluster",
            run: parsec::scluster,
            churn: 0.4,
        },
        App {
            name: "swap",
            run: parsec::swap,
            churn: 0.1,
        },
        App {
            name: "dedup",
            run: parsec::dedup,
            churn: 0.9,
        },
        App {
            name: "bscholes",
            run: parsec::bscholes,
            churn: 0.2,
        },
        App {
            name: "fluid",
            run: parsec::fluid,
            churn: 0.5,
        },
        App {
            name: "x264",
            run: parsec::x264,
            churn: 0.8,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_apps_like_the_paper() {
        let apps = fig7_apps();
        assert_eq!(apps.len(), 14);
        let names: autarky_prng::SimSet<&str> = apps.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 14, "no duplicate app names");
        assert!(!names.contains("vips"), "vips excluded, as in the paper");
    }
}
