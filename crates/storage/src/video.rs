//! Video titles and libraries.

use std::collections::BTreeMap;
use std::fmt;

use serde::Serialize;

/// A validated, non-negative size in megabytes.
///
/// # Examples
///
/// ```
/// use vod_storage::Megabytes;
///
/// let size = Megabytes::new(700.0);
/// assert_eq!(size.as_f64(), 700.0);
/// assert_eq!(size.as_megabits(), 5_600.0);
/// ```
#[derive(Copy, Clone, PartialEq, PartialOrd, Debug, Default)]
pub struct Megabytes(f64);

impl Megabytes {
    /// Zero megabytes.
    pub const ZERO: Megabytes = Megabytes(0.0);

    /// Creates a size value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative, NaN or infinite; use
    /// [`Megabytes::try_new`] for fallible construction.
    #[expect(
        clippy::expect_used,
        reason = "documented panic; `try_new` is the fallible form"
    )]
    pub fn new(value: f64) -> Self {
        Self::try_new(value).expect("size must be finite and non-negative")
    }

    /// Creates a size value, or `None` for negative/NaN/infinite input.
    pub fn try_new(value: f64) -> Option<Self> {
        if value.is_finite() && value >= 0.0 {
            Some(Megabytes(value))
        } else {
            None
        }
    }

    /// The raw value in megabytes.
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// The value in megabits (×8), the unit used for network transfers.
    pub fn as_megabits(self) -> f64 {
        self.0 * 8.0
    }

    /// Returns true if this is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Megabytes) -> Megabytes {
        Megabytes((self.0 - rhs.0).max(0.0))
    }
}

impl fmt::Display for Megabytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MB", self.0)
    }
}

impl std::ops::Add for Megabytes {
    type Output = Megabytes;
    fn add(self, rhs: Megabytes) -> Megabytes {
        Megabytes(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Megabytes {
    fn add_assign(&mut self, rhs: Megabytes) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Megabytes {
    fn sum<I: Iterator<Item = Megabytes>>(iter: I) -> Megabytes {
        iter.fold(Megabytes::ZERO, |a, b| a + b)
    }
}

/// Identifier of a video title, unique across the whole service.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize)]
#[serde(transparent)]
pub struct VideoId(u32);

impl VideoId {
    /// Creates a video id from a raw index.
    pub const fn new(raw: u32) -> Self {
        VideoId(raw)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VideoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Metadata of one video title.
///
/// The playback bitrate is in Mbps; the paper targets "the minimum video
/// frame rate for which a video can be considered decent", which for
/// MPEG-1-era content is roughly 1.5 Mbps.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoMeta {
    id: VideoId,
    title: String,
    size: Megabytes,
    bitrate_mbps: f64,
}

impl VideoMeta {
    /// Creates video metadata.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate_mbps` is not strictly positive and finite, or if
    /// `size` is zero.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `bitrate must be positive` and `a video has a positive size`; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(id: VideoId, title: impl Into<String>, size: Megabytes, bitrate_mbps: f64) -> Self {
        assert!(
            bitrate_mbps.is_finite() && bitrate_mbps > 0.0,
            "bitrate must be positive"
        );
        assert!(!size.is_zero(), "a video has a positive size");
        VideoMeta {
            id,
            title: title.into(),
            size,
            bitrate_mbps,
        }
    }

    /// The video's id.
    pub fn id(&self) -> VideoId {
        self.id
    }

    /// The human-readable title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Total size.
    pub fn size(&self) -> Megabytes {
        self.size
    }

    /// Playback bitrate in Mbps.
    pub fn bitrate_mbps(&self) -> f64 {
        self.bitrate_mbps
    }

    /// Playback duration in seconds at the nominal bitrate.
    pub fn duration_secs(&self) -> f64 {
        self.size.as_megabits() / self.bitrate_mbps
    }
}

/// The service-wide catalog of all video titles.
///
/// # Examples
///
/// ```
/// use vod_storage::video::{Megabytes, VideoId, VideoLibrary, VideoMeta};
///
/// let mut lib = VideoLibrary::new();
/// let id = VideoId::new(0);
/// lib.insert(VideoMeta::new(id, "Z", Megabytes::new(500.0), 1.5));
/// assert_eq!(lib.get(id).unwrap().title(), "Z");
/// assert_eq!(lib.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VideoLibrary {
    videos: BTreeMap<VideoId, VideoMeta>,
}

impl VideoLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a title, returning the previous metadata for
    /// that id if any.
    pub fn insert(&mut self, meta: VideoMeta) -> Option<VideoMeta> {
        self.videos.insert(meta.id(), meta)
    }

    /// Looks up a title.
    pub fn get(&self, id: VideoId) -> Option<&VideoMeta> {
        self.videos.get(&id)
    }

    /// Number of titles.
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// Returns true if the library has no titles.
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    /// Iterates over all titles in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &VideoMeta> {
        self.videos.values()
    }

    /// All ids in order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = VideoId> + '_ {
        self.videos.keys().copied()
    }

    /// Total size of all titles.
    pub fn total_size(&self) -> Megabytes {
        self.videos.values().map(VideoMeta::size).sum()
    }
}

impl FromIterator<VideoMeta> for VideoLibrary {
    fn from_iter<I: IntoIterator<Item = VideoMeta>>(iter: I) -> Self {
        let mut lib = VideoLibrary::new();
        for v in iter {
            lib.insert(v);
        }
        lib
    }
}

impl Extend<VideoMeta> for VideoLibrary {
    fn extend<I: IntoIterator<Item = VideoMeta>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video(id: u32, mb: f64) -> VideoMeta {
        VideoMeta::new(VideoId::new(id), format!("t{id}"), Megabytes::new(mb), 1.5)
    }

    #[test]
    fn megabytes_validation() {
        assert!(Megabytes::try_new(-1.0).is_none());
        assert!(Megabytes::try_new(f64::NAN).is_none());
        assert_eq!(Megabytes::new(3.0).as_f64(), 3.0);
        assert_eq!(Megabytes::new(1.0).as_megabits(), 8.0);
    }

    #[test]
    fn megabytes_arithmetic() {
        let a = Megabytes::new(5.0);
        let b = Megabytes::new(3.0);
        assert_eq!((a + b).as_f64(), 8.0);
        assert_eq!(b.saturating_sub(a), Megabytes::ZERO);
        assert_eq!(a.saturating_sub(b).as_f64(), 2.0);
        let sum: Megabytes = [a, b].into_iter().sum();
        assert_eq!(sum.as_f64(), 8.0);
    }

    #[test]
    fn meta_accessors_and_duration() {
        let v = VideoMeta::new(VideoId::new(3), "Movie", Megabytes::new(675.0), 1.5);
        assert_eq!(v.id(), VideoId::new(3));
        assert_eq!(v.title(), "Movie");
        assert_eq!(v.size().as_f64(), 675.0);
        // 675 MB * 8 / 1.5 Mbps = 3600 s = 1 hour.
        assert!((v.duration_secs() - 3600.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bitrate")]
    fn zero_bitrate_rejected() {
        let _ = VideoMeta::new(VideoId::new(0), "x", Megabytes::new(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_size_rejected() {
        let _ = VideoMeta::new(VideoId::new(0), "x", Megabytes::ZERO, 1.0);
    }

    #[test]
    fn library_crud() {
        let mut lib = VideoLibrary::new();
        assert!(lib.is_empty());
        assert!(lib.insert(video(1, 100.0)).is_none());
        assert!(lib.insert(video(2, 200.0)).is_none());
        // Replacing returns the old metadata.
        let old = lib.insert(video(1, 150.0)).unwrap();
        assert_eq!(old.size().as_f64(), 100.0);
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.get(VideoId::new(2)).unwrap().size().as_f64(), 200.0);
        assert_eq!(lib.get(VideoId::new(9)), None);
        assert_eq!(lib.total_size().as_f64(), 350.0);
        assert_eq!(
            lib.ids().collect::<Vec<_>>(),
            vec![VideoId::new(1), VideoId::new(2)]
        );
    }

    #[test]
    fn library_from_iterator_and_extend() {
        let mut lib: VideoLibrary = (0..5).map(|i| video(i, 10.0)).collect();
        assert_eq!(lib.len(), 5);
        lib.extend((5..8).map(|i| video(i, 10.0)));
        assert_eq!(lib.len(), 8);
    }
}
