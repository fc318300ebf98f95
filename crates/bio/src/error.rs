use std::fmt;

/// Error raised by `canti-bio` constructors and steppers on physically
/// invalid inputs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BioError {
    /// A quantity that must be strictly positive was zero or negative.
    NonPositive {
        /// Human-readable name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A quantity that must be non-negative was negative.
    Negative {
        /// Human-readable name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A fractional coverage fell outside `[0, 1]`.
    CoverageOutOfRange {
        /// The rejected coverage value.
        value: f64,
    },
    /// A value that must be finite was NaN or infinite.
    NotFinite {
        /// Human-readable name of the offending parameter.
        what: &'static str,
    },
    /// An assay run would produce more samples than
    /// [`crate::assay::MAX_ASSAY_SAMPLES`].
    TooManySamples {
        /// Samples the run asked for (may exceed `usize`).
        requested: f64,
        /// The bound it exceeded.
        limit: usize,
    },
}

impl fmt::Display for BioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonPositive { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
            Self::Negative { what, value } => {
                write!(f, "{what} must be non-negative, got {value}")
            }
            Self::CoverageOutOfRange { value } => {
                write!(f, "coverage must lie in [0, 1], got {value}")
            }
            Self::NotFinite { what } => write!(f, "{what} must be finite"),
            Self::TooManySamples { requested, limit } => {
                write!(
                    f,
                    "assay run needs {requested} samples, more than the limit of {limit}"
                )
            }
        }
    }
}

impl std::error::Error for BioError {}

pub(crate) fn ensure_positive(what: &'static str, value: f64) -> Result<(), BioError> {
    if !value.is_finite() {
        return Err(BioError::NotFinite { what });
    }
    if value <= 0.0 {
        return Err(BioError::NonPositive { what, value });
    }
    Ok(())
}

pub(crate) fn ensure_coverage(value: f64) -> Result<(), BioError> {
    if !value.is_finite() {
        return Err(BioError::NotFinite { what: "coverage" });
    }
    if !(0.0..=1.0).contains(&value) {
        return Err(BioError::CoverageOutOfRange { value });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<BioError>();
    }

    #[test]
    fn display_messages() {
        let e = BioError::NonPositive {
            what: "k_on",
            value: -1.0,
        };
        assert_eq!(e.to_string(), "k_on must be positive, got -1");
        let e = BioError::CoverageOutOfRange { value: 1.5 };
        assert_eq!(e.to_string(), "coverage must lie in [0, 1], got 1.5");
        let e = BioError::TooManySamples {
            requested: 450_000_000_001.0,
            limit: 1 << 22,
        };
        assert_eq!(
            e.to_string(),
            "assay run needs 450000000001 samples, more than the limit of 4194304"
        );
    }

    #[test]
    fn validators() {
        assert!(ensure_positive("x", 1.0).is_ok());
        assert!(ensure_positive("x", 0.0).is_err());
        assert!(ensure_positive("x", f64::NAN).is_err());
        assert!(ensure_coverage(0.0).is_ok());
        assert!(ensure_coverage(1.0).is_ok());
        assert!(ensure_coverage(1.0001).is_err());
        assert!(ensure_coverage(f64::INFINITY).is_err());
    }
}
