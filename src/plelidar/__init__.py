"""Pseudo-label propagation for sequential LiDAR semantic segmentation.

Given a sequence of scans with poses and a small labeled subset, labels are
propagated to nearby unlabeled scans by pose-aligned nearest-neighbor
transfer (naive, or progressive: nearest frames first, with estimates as
references), the resulting label quality is scored, and a small dual-head
student/teacher classifier demonstrates training on the mixed label pool.
"""
